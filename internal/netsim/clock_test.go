package netsim

import (
	"testing"

	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
)

// TestEventsAndSpansShareClock runs the Figure 5 bulk shape with events and
// spans both recorded and checks that they read one clock inside a metered
// task: every core alloc span contains the stamp of an Alloc event of its
// own domain, and core's allocation-latency histogram sees the metered time
// instead of the frozen scheduler clock.
func TestEventsAndSpansShareClock(t *testing.T) {
	o := obs.New(1 << 17)
	o.Spans = span.NewRecorder(16)
	if _, err := Run(Config{Placement: UserUser, Opts: cachedVolatile(),
		PDUBytes: 16 * 1024, MsgBytes: 1 << 20, Count: 4, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if d := o.Tracer.Dropped(); d > 0 {
		t.Fatalf("tracer dropped %d events", d)
	}
	allocs := map[int][]int64{} // actor -> Alloc event stamps
	for _, e := range o.Tracer.Events() {
		if e.Kind == obs.EvAlloc {
			allocs[e.Domain] = append(allocs[e.Domain], int64(e.At))
		}
	}
	traces := o.Spans.Completed()
	if len(traces) != 8 { // four data transfers, four acks
		t.Fatalf("%d completed traces, want 8", len(traces))
	}
	var spans, covered int
	for _, tr := range traces {
		for _, s := range tr.Spans {
			if s.Layer != "core" || s.Stage != span.StageAlloc {
				continue
			}
			spans++
			for _, at := range allocs[s.Actor] {
				if int64(s.Start) <= at && at <= int64(s.End) {
					covered++
					break
				}
			}
		}
	}
	if spans == 0 || covered != spans {
		t.Errorf("%d of %d core alloc spans contain an Alloc event of their domain, want all", covered, spans)
	}
	h, ok := o.Metrics.Snapshot().Histograms["path.0.tx-data.alloc_ns"]
	if !ok || h.Count == 0 || h.Sum == 0 {
		t.Errorf("path.0.tx-data.alloc_ns = %+v, want samples with a nonzero sum", h)
	}
}
