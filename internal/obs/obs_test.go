package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fbufs/internal/simtime"
)

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(simtime.Time(i*100), EvAlloc, 1, 0, uint64(i), int64(i))
	}
	if tr.Total() != 10 {
		t.Fatalf("total %d", tr.Total())
	}
	if tr.Count() != 4 {
		t.Fatalf("count %d", tr.Count())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events %d", len(evs))
	}
	for i, e := range evs {
		want := int64(6 + i) // oldest surviving is #6
		if e.Arg != want || e.At != simtime.Time(want*100) {
			t.Fatalf("event %d: arg=%d at=%v, want arg=%d", i, e.Arg, e.At, want)
		}
	}
}

func TestEventOrderingOnSimulatedClock(t *testing.T) {
	o := New(64)
	clk := &simtime.Clock{}
	o.SetNow(clk.Now)
	stamps := []simtime.Duration{0, 30, 0, 2500, 1}
	for i, d := range stamps {
		clk.Advance(d)
		o.Emit(EvTransfer, 0, 0, 0, int64(i))
	}
	evs := o.Tracer.Events()
	if len(evs) != len(stamps) {
		t.Fatalf("events %d", len(evs))
	}
	if evs[len(evs)-1].At != clk.Now() {
		t.Fatalf("last event at %v, want the observer's clock %v", evs[len(evs)-1].At, clk.Now())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event %d at %v precedes event %d at %v", i, evs[i].At, i-1, evs[i-1].At)
		}
		if evs[i].Arg <= evs[i-1].Arg {
			t.Fatal("emission order lost")
		}
	}
}

func TestSince(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Emit(0, EvFree, 0, 0, 0, int64(i))
	}
	mark := tr.Total()
	tr.Emit(0, EvRecycle, 0, 0, 0, 3)
	tr.Emit(0, EvRecycle, 0, 0, 0, 4)
	got := tr.Since(mark)
	if len(got) != 2 || got[0].Arg != 3 || got[1].Arg != 4 {
		t.Fatalf("since: %+v", got)
	}
	// A mark older than the ring start returns everything held.
	for i := 0; i < 10; i++ {
		tr.Emit(0, EvFree, 0, 0, 0, 0)
	}
	if n := len(tr.Since(0)); n != 4 {
		t.Fatalf("since(0) after wrap: %d events", n)
	}
	if n := len(tr.Since(tr.Total())); n != 0 {
		t.Fatalf("since(total): %d events", n)
	}
}

// TestChromeTraceRoundTrip checks the export both against a golden literal
// (byte-level format stability) and through encoding/json (validity).
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.SetActor(1, "app")
	tr.SetTrack(0, "video")
	tr.Emit(1500, EvAlloc, 1, 0, 7, 4) // 1.5 us
	tr.Emit(2001, EvTLBMiss, 1, NoTrack, 0, 99)
	tr.Emit(2500, EvTLBMiss, NoActor, NoTrack, 0, 55) // ownerless: reserved pid 0

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{"traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"host"}},
{"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"app"}},
{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"host"}},
{"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"host"}},
{"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"video"}},
{"ph":"i","name":"Alloc","pid":2,"tid":1,"ts":1.500,"s":"t","args":{"gen":7,"arg":4}},
{"ph":"i","name":"TLBMiss","pid":2,"tid":0,"ts":2.001,"s":"t","args":{"gen":0,"arg":99}},
{"ph":"i","name":"TLBMiss","pid":0,"tid":0,"ts":2.500,"s":"t","args":{"gen":0,"arg":55}}
],"displayTimeUnit":"ns"}
`
	if buf.String() != golden {
		t.Fatalf("export differs from golden:\n%s", buf.String())
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Args struct {
				Gen uint64 `json:"gen"`
				Arg int64  `json:"arg"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d trace events", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[5]
	if e.Ph != "i" || e.Name != "Alloc" || e.Pid != 2 || e.Tid != 1 || e.Ts != 1.5 ||
		e.Args.Gen != 7 || e.Args.Arg != 4 {
		t.Fatalf("instant event round-trip: %+v", e)
	}
	for _, e := range doc.TraceEvents {
		if e.Pid < 0 || e.Tid < 0 {
			t.Fatalf("negative pid/tid in export: %+v", e)
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(8)
		clk := &simtime.Clock{}
		tr.SetActor(0, "kernel")
		tr.SetActor(1, "app")
		tr.SetTrack(0, "p0")
		for i := 0; i < 12; i++ { // wraps
			clk.Advance(simtime.Duration(i * 7))
			tr.Emit(clk.Now(), EventKind(1+i%int(numEventKinds-1)), i%2, i%3-1, uint64(i), int64(i))
		}
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical runs produced different trace exports")
	}
	var am, bm bytes.Buffer
	snap := func() Snapshot {
		s := NewSnapshot()
		s.Counters["z"] = 3
		s.Counters["a"] = 1
		s.Gauges["depth"] = -2
		return s
	}
	if err := snap().WriteJSON(&am); err != nil {
		t.Fatal(err)
	}
	if err := snap().WriteJSON(&bm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(am.Bytes(), bm.Bytes()) {
		t.Fatal("metrics snapshots differ between identical runs")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1<<62 - 1, 62}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if c.bucket > 0 {
			lo, hi := BucketBounds(c.bucket)
			if c.v < lo || c.v > hi {
				t.Errorf("value %d outside its bucket bounds [%d,%d]", c.v, lo, hi)
			}
		}
	}
	h := &Histogram{}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.count != uint64(len(cases)) {
		t.Fatalf("count %d", h.count)
	}
	if h.min != -5 || h.max != 1<<62 {
		t.Fatalf("min/max %d/%d", h.min, h.max)
	}
	var total uint64
	for _, n := range h.counts {
		total += n
	}
	if total != h.count {
		t.Fatalf("bucket sum %d != count %d", total, h.count)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, EvAlloc, 0, 0, 0, 0)
	tr.SetActor(0, "x")
	if tr.Count() != 0 || tr.Total() != 0 || tr.Events() != nil || tr.Since(0) != nil {
		t.Fatal("nil tracer not inert")
	}
	// A zero-value Tracer (not built via NewTracer) has no ring; it must
	// drop events rather than panic, and naming must lazily allocate.
	zt := &Tracer{}
	zt.Emit(0, EvAlloc, 0, 0, 0, 0)
	if zt.Count() != 0 || zt.Total() != 0 {
		t.Fatal("zero-value tracer not inert")
	}
	zt.SetActor(1, "a")
	zt.SetTrack(1, "p")
	if zt.ActorName(1) != "a" || zt.TrackName(1) != "p" {
		t.Fatal("zero-value tracer naming broken")
	}
	var o *Observer
	o.Emit(EvAlloc, 0, 0, 0, 0)
	o.SetNow(nil)
	if o.Now() != 0 {
		t.Fatal("nil observer not inert")
	}
	var h *Histogram
	h.Observe(1)
	if h.Percentile(50) != 0 {
		t.Fatal("nil histogram not inert")
	}
}

// TestPublishSelfMetrics: after wrapping a small ring, the dropped-event
// count must surface in the metrics snapshot and its JSON — the only
// signal that an exported trace is truncated.
func TestPublishSelfMetrics(t *testing.T) {
	o := New(4)
	for i := 0; i < 10; i++ {
		o.Emit(EvAlloc, 1, 1, 0, int64(i))
	}
	s := NewSnapshot()
	o.PublishSelfMetrics(s)
	if got := s.Counters["obs.events_total"]; got != 10 {
		t.Errorf("obs.events_total = %d, want 10", got)
	}
	if got := s.Counters["obs.events_dropped"]; got != 6 {
		t.Errorf("obs.events_dropped = %d, want 6", got)
	}
	if got := s.Gauges["obs.events_held"]; got != 4 {
		t.Errorf("obs.events_held = %d, want 4", got)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"obs.events_dropped": 6`) {
		t.Errorf("snapshot JSON missing dropped count:\n%s", buf.String())
	}
	// Publishing from a nil observer is a no-op, matching every other
	// Observer method.
	empty := NewSnapshot()
	var nilObs *Observer
	nilObs.PublishSelfMetrics(empty)
	if len(empty.Counters)+len(empty.Gauges) != 0 {
		t.Fatalf("nil observer published %+v", empty)
	}
}
