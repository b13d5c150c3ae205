package profile

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
)

func newObsWithSpans(traces int) *obs.Observer {
	o := obs.New(64)
	o.Spans = span.NewRecorder(traces)
	return o
}

// runTrace records one "data" trace of dur ns: an ipc span and a link span.
func runTrace(o *obs.Observer, dur int64) {
	id := o.BeginTrace("data", 4096)
	o.SpanBegin(span.StageIPC, "ipc", 2, 0)
	o.SpanEnd()
	o.Spans.Record(id, span.StageLink, "net", span.NoActor, 0, 10, 0)
	o.Spans.EndTrace(id, simtime.Time(dur))
}

// dumpEvents renders fr's dump and decodes its events.
func dumpEvents(t *testing.T, fr *FlightRecorder) []dumpEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := fr.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents     []dumpEvent `json:"traceEvents"`
		DisplayTimeUnit string      `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, buf.String())
	}
	if dump.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", dump.DisplayTimeUnit)
	}
	return dump.TraceEvents
}

type dumpEvent struct {
	Ph   string          `json:"ph"`
	Name string          `json:"name"`
	Pid  int             `json:"pid"`
	Tid  uint64          `json:"tid"`
	Dur  float64         `json:"dur"`
	Args json.RawMessage `json:"args"`
}

// TestFlightRecorderRingBound: the dump renders the traces the span
// recorder retains, so the span recorder's bound is the dump's bound.
func TestFlightRecorderRingBound(t *testing.T) {
	o := newObsWithSpans(2)
	fr := NewFlightRecorder(o)
	Attach(o, nil, fr)
	for i := 0; i < 5; i++ {
		runTrace(o, 10)
	}
	tids := map[uint64]bool{}
	for _, e := range dumpEvents(t, fr) {
		if e.Ph == "X" {
			tids[e.Tid] = true
		}
	}
	if len(tids) != 2 || !tids[4] || !tids[5] {
		t.Fatalf("dumped traces %v, want 4 and 5", tids)
	}
}

func TestLatencyTrigger(t *testing.T) {
	fr := NewFlightRecorder(nil)
	fr.SetLatencyThreshold("data", 100)
	fr.OnTrace(span.Trace{ID: 1, Label: "data", Start: 0, End: 90})
	if tripped, _ := fr.Tripped(); tripped {
		t.Fatal("tripped below threshold")
	}
	fr.OnTrace(span.Trace{ID: 2, Label: "ack", Start: 0, End: 500})
	if tripped, _ := fr.Tripped(); tripped {
		t.Fatal("tripped on non-matching label")
	}
	fr.OnTrace(span.Trace{ID: 3, Label: "data", Start: 0, End: 500})
	tripped, a := fr.Tripped()
	if !tripped || a.Kind != "latency" {
		t.Fatalf("tripped=%v anomaly=%+v", tripped, a)
	}
}

func TestScanEventsTrips(t *testing.T) {
	o := obs.New(64)
	fr := NewFlightRecorder(o)
	o.Emit(obs.EvAlloc, 1, 0, 0, 4) // benign
	fr.ScanEvents()
	if tripped, _ := fr.Tripped(); tripped {
		t.Fatal("tripped on benign event")
	}
	o.Emit(obs.EvAllocFailed, 1, 0, 0, 4)
	o.Emit(obs.EvCopyFallback, 2, 1, 0, 0)
	fr.ScanEvents()
	anoms := fr.Anomalies()
	if len(anoms) != 2 || anoms[0].Kind != "alloc-failed" || anoms[1].Kind != "copy-fallback" {
		t.Fatalf("anomalies = %+v", anoms)
	}
	// Cursor advanced: rescanning the same events must not re-trip.
	fr.ScanEvents()
	if len(fr.Anomalies()) != 2 {
		t.Fatal("rescan duplicated anomalies")
	}
}

// The dump must be valid Chrome trace-event JSON: loadable, with the
// reserved host pid 0, complete ("X") span events, and anomaly instants.
func TestDumpIsLoadablePerfetto(t *testing.T) {
	o := newObsWithSpans(16)
	p := NewProfiler()
	fr := NewFlightRecorder(o)
	fr.SetLatencyThreshold("data", 5)
	Attach(o, p, fr)
	runTrace(o, 10) // 10 ns > 5 ns: trips the latency trigger

	var sawHostMeta, sawSpan, sawAnomaly bool
	for _, e := range dumpEvents(t, fr) {
		switch {
		case e.Ph == "M" && e.Name == "process_name" && e.Pid == 0:
			sawHostMeta = true
		case e.Ph == "X":
			sawSpan = true
			if e.Pid < 0 {
				t.Fatalf("span event with negative pid: %+v", e)
			}
		case e.Ph == "i" && strings.HasPrefix(e.Name, "anomaly:"):
			sawAnomaly = true
		case e.Ph == "M" && e.Name != "process_name":
			t.Fatalf("dump holds metadata beyond process names: %+v", e)
		}
	}
	if !sawHostMeta || !sawSpan || !sawAnomaly {
		t.Fatalf("dump missing sections: host=%v span=%v anomaly=%v",
			sawHostMeta, sawSpan, sawAnomaly)
	}
	// Determinism: a second render is byte-identical.
	var buf, buf2 bytes.Buffer
	if err := fr.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteDump(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("dump not deterministic")
	}
}

func TestDumpIfTripped(t *testing.T) {
	o := obs.New(64)
	fr := NewFlightRecorder(o)
	path := t.TempDir() + "/dump.json"
	if wrote, err := fr.DumpIfTripped(path); wrote || err != nil {
		t.Fatalf("untripped: wrote=%v err=%v", wrote, err)
	}
	o.Emit(obs.EvDomainCrash, 1, obs.NoTrack, 0, 0)
	fr.ScanEvents()
	wrote, err := fr.DumpIfTripped(path)
	if !wrote || err != nil {
		t.Fatalf("tripped: wrote=%v err=%v", wrote, err)
	}
}

func TestNilFlightRecorder(t *testing.T) {
	var fr *FlightRecorder
	fr.OnTrace(span.Trace{})
	fr.ScanEvents()
	fr.SetLatencyThreshold("", 1)
	if tripped, _ := fr.Tripped(); tripped {
		t.Fatal("nil recorder tripped")
	}
	if fr.Anomalies() != nil {
		t.Fatal("nil recorder returned data")
	}
	var buf bytes.Buffer
	if err := fr.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil dump not valid JSON")
	}
}
