package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a deterministic event stream exercising the
// exporter's corners: the reserved pid-0 host track (NoActor/NoTrack
// events), named and unnamed actors, and sub-microsecond timestamps.
func goldenTracer() *Tracer {
	tr := NewTracer(64)
	tr.SetActor(0, "kernel")
	tr.SetActor(1, "app")
	tr.SetTrack(0, "tx-data")

	tr.Emit(0, EvAlloc, 0, 0, 1, 4)
	// 1.5 us: exercises the fractional-microsecond format.
	tr.Emit(1500, EvTransfer, 0, 0, 1, 4)
	tr.Emit(2000, EvMappingBuilt, 1, 0, 1, 4)
	tr.Emit(110_000, EvFree, 1, 0, 1, 4)
	// Host-level event: NoActor/NoTrack must land on the reserved pid 0.
	tr.Emit(111_003, EvLinkFault, NoActor, NoTrack, 0, 1)
	// An actor with no registered name falls back to "domain N".
	tr.Emit(120_000, EvRecycle, 7, NoTrack, 2, 4)
	return tr
}

// TestChromeTraceGolden pins the exporter's exact output: stable ordering
// (metadata sorted, events in emission order) and the reserved pid 0 host
// process. Any intentional format change is made visible by regenerating
// with `go test ./internal/obs -run ChromeTraceGolden -update`.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace output differs from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Structural invariants, independent of the exact bytes.
	var parsed struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	var pid0Name string
	for _, e := range parsed.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" && e.Pid == 0 {
			pid0Name = e.Args.Name
		}
		if e.Pid < 0 || e.Tid < 0 {
			t.Errorf("negative pid/tid in event %+v", e)
		}
	}
	if pid0Name != "host" {
		t.Errorf("reserved pid 0 named %q, want \"host\"", pid0Name)
	}
	// Metadata must precede all instant events (stable section ordering).
	lastMeta, firstInstant := -1, -1
	for i, e := range parsed.TraceEvents {
		switch e.Ph {
		case "M":
			lastMeta = i
		case "i":
			if firstInstant < 0 {
				firstInstant = i
			}
		}
	}
	if firstInstant >= 0 && lastMeta > firstInstant {
		t.Error("metadata events interleaved with instant events")
	}
}

// TestChromeTraceDeterministic renders the same stream twice and expects
// byte-identical output.
func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	tr := goldenTracer()
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same tracer differ")
	}
	if !strings.HasSuffix(a.String(), "\"displayTimeUnit\":\"ns\"}\n") {
		t.Error("output missing displayTimeUnit suffix")
	}
}
