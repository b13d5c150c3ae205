package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fbufs/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the trace hashes in testdata")

// TestTraceGolden pins the Chrome trace of three short runs to SHA-256
// hashes in testdata, so any change to event order, simulated timing or
// reference accounting fails here. The runs cover the Figure 5 bulk shape
// (user-user, 1 MB messages, legacy IPC), the small-message shape
// (user-netserver-user over rings, 64 B) and the faulted SWP run of
// TestDeterminismWithFaults. Regenerate the hashes only for a change that
// means to alter modelled behaviour:
// `go test ./internal/netsim -run TraceGolden -update`.
func TestTraceGolden(t *testing.T) {
	cases := []struct {
		name  string
		trace func(t *testing.T) []byte
	}{
		{"bulk", func(t *testing.T) []byte {
			return tracedRun(t, Config{Placement: UserUser, Opts: cachedVolatile(),
				PDUBytes: 16 * 1024, MsgBytes: 1 << 20, Count: 4})
		}},
		{"small", func(t *testing.T) []byte {
			return tracedRun(t, Config{Placement: UserNetserverUser, Opts: cachedVolatile(),
				PDUBytes: 16 * 1024, MsgBytes: 64, Count: 16, UseRings: true})
		}},
		{"faulted_swp", func(t *testing.T) []byte {
			_, trace := runFaultedSWP(t)
			return trace
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(tc.trace(t))
			got := hex.EncodeToString(sum[:]) + "\n"
			golden := filepath.Join("testdata", tc.name+".sha256")
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
				t.Errorf("trace SHA-256 %s, want %s", got[:len(got)-1], bytes.TrimSpace(want))
			}
		})
	}
}

// tracedRun runs one configuration with an observer large enough to keep
// every event and returns its Chrome trace.
func tracedRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	o := obs.New(1 << 17)
	cfg.Obs = o
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if d := o.Tracer.Dropped(); d > 0 {
		t.Fatalf("tracer dropped %d events: the hash would not cover the whole run", d)
	}
	var trace bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	return trace.Bytes()
}
