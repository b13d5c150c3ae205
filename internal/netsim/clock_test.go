package netsim

import (
	"testing"

	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
)

// TestEventsAndSpansShareClock runs the Figure 5 bulk shape with events and
// spans both recorded and checks that they read one clock inside a metered
// task: every core alloc span contains the stamp of an Alloc event of its
// own domain, every core map span contains the stamp of a Transfer event to
// its actor, and the alloc spans together last a nonzero time, so they see
// the metered time instead of the frozen scheduler clock.
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
	allocs := map[int][]int64{}    // actor -> Alloc event stamps
	transfers := map[int][]int64{} // receiving actor -> Transfer event stamps
	for _, e := range o.Tracer.Events() {
		switch e.Kind {
		case obs.EvAlloc:
			allocs[e.Domain] = append(allocs[e.Domain], int64(e.At))
		case obs.EvTransfer:
			transfers[int(e.Arg)] = append(transfers[int(e.Arg)], int64(e.At))
		}
	}
	traces := o.Spans.Completed()
	if len(traces) != 8 { // four data transfers, four acks
		t.Fatalf("%d completed traces, want 8", len(traces))
	}
	contains := func(s span.Span, stamps []int64) bool {
		for _, at := range stamps {
			if int64(s.Start) <= at && at <= int64(s.End) {
				return true
			}
		}
		return false
	}
	var allocSpans, allocCovered, mapSpans, mapCovered int
	var allocNs int64
	for _, tr := range traces {
		for _, s := range tr.Spans {
			if s.Layer != "core" {
				continue
			}
			switch s.Stage {
			case span.StageAlloc:
				allocSpans++
				allocNs += int64(s.Dur())
				if contains(s, allocs[s.Actor]) {
					allocCovered++
				}
			case span.StageMap:
				mapSpans++
				if contains(s, transfers[s.Actor]) {
					mapCovered++
				}
			}
		}
	}
	if allocSpans == 0 || allocCovered != allocSpans {
		t.Errorf("%d of %d core alloc spans contain an Alloc event of their domain, want all", allocCovered, allocSpans)
	}
	if mapSpans == 0 || mapCovered != mapSpans {
		t.Errorf("%d of %d core map spans contain a Transfer event to their actor, want all", mapCovered, mapSpans)
	}
	if allocNs == 0 {
		t.Errorf("core alloc spans last 0 ns in total over %d spans, want the metered clock's nonzero time", allocSpans)
	}
}
