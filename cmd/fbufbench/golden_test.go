package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fbufs/internal/bench"
	"fbufs/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the output hashes in testdata")

// TestOutputGolden pins the text fbufbench prints to SHA-256 hashes in
// testdata, so any change to modelled timing, event order or reference
// accounting that reaches a table fails here. It covers `-exp all` (the
// paper figures, smp, audit and the ablation tables), `-exp chaos`, and
// `-exp rings|overload|smp` at seeds 1-3. Regenerate the hashes only for
// a change that means to alter modelled behaviour:
// `go test ./cmd/fbufbench -run OutputGolden -update`.
func TestOutputGolden(t *testing.T) {
	type pin struct {
		exp  string
		seed int64
	}
	runs := []pin{{"all", 0}, {"chaos", 0}}
	for _, exp := range []string{"rings", "overload", "smp"} {
		for seed := int64(1); seed <= 3; seed++ {
			runs = append(runs, pin{exp, seed})
		}
	}
	for _, r := range runs {
		name := r.exp
		if r.seed != 0 {
			name = fmt.Sprintf("%s_seed%d", r.exp, r.seed)
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, r.exp, r.seed); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, out.Bytes())
		})
	}
}

// TestTraceGolden pins, the same way, the Chrome trace that
// `-exp fig5 -trace` writes and the audit flight recorder's Perfetto dump
// that `-audit-trace` writes.
func TestTraceGolden(t *testing.T) {
	t.Run("fig5_trace", func(t *testing.T) {
		o := obs.New(1 << 18) // as main sets up -trace
		bench.SetObserver(o)
		defer bench.SetObserver(nil)
		if err := run(io.Discard, "fig5", 0); err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := o.Tracer.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "fig5_trace", trace.Bytes())
	})
	t.Run("audit_trace", func(t *testing.T) {
		res, err := bench.Audit()
		if err != nil {
			t.Fatal(err)
		}
		var dump bytes.Buffer
		if err := res.Recorder.WriteDump(&dump); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "audit_trace", dump.Bytes())
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
