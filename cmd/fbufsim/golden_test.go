package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the output hashes in testdata")

// TestOutputGolden pins what fbufsim prints to SHA-256 hashes in testdata,
// so any change to modelled timing, event order or reference accounting
// that reaches its output fails here. It covers the four -mode traces,
// -stack with its Chrome trace, and -chaos and -conform at seeds 1-3, each
// with the flag defaults. Regenerate the hashes only for a change that
// means to alter modelled behaviour:
// `go test ./cmd/fbufsim -run OutputGolden -update`.
func TestOutputGolden(t *testing.T) {
	// The flag defaults main sets.
	base := config{mode: "cached-volatile", pages: 4, hops: 3, ndomains: 2, msgBytes: 65536, events: true, seed: 1}
	type pin struct {
		name string
		cfg  config
	}
	var runs []pin
	for _, mode := range validModes {
		cfg := base
		cfg.mode = mode
		runs = append(runs, pin{"mode_" + mode, cfg})
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := base
		cfg.chaos, cfg.seed = true, seed
		runs = append(runs, pin{fmt.Sprintf("chaos_seed%d", seed), cfg})
		cfg = base
		cfg.conform, cfg.seed = true, seed
		runs = append(runs, pin{fmt.Sprintf("conform_seed%d", seed), cfg})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, r.cfg); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, r.name, out.Bytes())
		})
	}
	t.Run("stack", func(t *testing.T) {
		cfg := base
		cfg.stack = true
		cfg.tracePath = filepath.Join(t.TempDir(), "stack.json")
		var out bytes.Buffer
		if err := run(&out, cfg); err != nil {
			t.Fatal(err)
		}
		trace, err := os.ReadFile(cfg.tracePath)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "stack", out.Bytes())
		checkGolden(t, "stack_trace", trace)
	})
}

// checkGolden compares the SHA-256 of data with testdata/name.sha256,
// rewriting the file first under -update.
func checkGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:]) + "\n"
	golden := filepath.Join("testdata", name+".sha256")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden hash (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output SHA-256 %s, want %s", got[:len(got)-1], bytes.TrimSpace(want))
	}
}
