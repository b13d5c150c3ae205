package xfer

import (
	"testing"

	"fbufs/internal/core"
	"fbufs/internal/faults"
	"fbufs/internal/machine"
)

// TestAdaptiveProbeBackoff pins the degraded-mode probe schedule: the
// interval starts at RetryEvery, doubles on every failed probe, and caps
// at RetryEvery*backoffCap. With RetryEvery=2 the cap is 16 hops, so the
// probes in a long drought land on degraded hops 2, 6, 14, 30, 46, 62 —
// six failures where an unbacked-off facility would have burned 31, and
// one more than an uncapped doubling (2, 6, 14, 30, 62).
func TestAdaptiveProbeBackoff(t *testing.T) {
	r := newRig(t)
	a, err := NewAdaptive(r.mgr, r.src, r.dst, core.CachedVolatile(), machine.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	a.RetryEvery = 2

	plane := faults.NewPlane(11)
	plane.SetRate(faults.PathAlloc, 1_000_000)
	r.sys.FaultPlane = plane

	// Hop 1 degrades; 62 more ride the copy path through the drought.
	for i := 0; i < 63; i++ {
		if err := a.Hop(); err != nil {
			t.Fatalf("drought hop %d: %v", i, err)
		}
	}
	if !a.Degraded() {
		t.Fatal("still droughted, should be degraded")
	}
	if a.Stats.ProbeFailures != 6 {
		t.Fatalf("ProbeFailures = %d after 62 degraded hops, want 6 (backed off, capped)", a.Stats.ProbeFailures)
	}
	if a.Stats.Episodes != 1 {
		t.Fatalf("Episodes = %d, want 1", a.Stats.Episodes)
	}

	// The fault lifts; the next probe is at most a capped interval away.
	plane.SetRate(faults.PathAlloc, 0)
	recovered := false
	for i := 0; i < a.RetryEvery*backoffCap; i++ {
		if err := a.Hop(); err != nil {
			t.Fatalf("recovery hop %d: %v", i, err)
		}
		if !a.Degraded() {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("no recovery within one capped interval, stats %+v", a.Stats)
	}

	// Recovery resets the interval: a fresh episode probes at RetryEvery
	// again, not at the capped interval the last drought reached.
	plane.SetRate(faults.PathAlloc, 1_000_000)
	pf := a.Stats.ProbeFailures
	for i := 0; i < 3; i++ { // degrade + two copy hops = first probe
		if err := a.Hop(); err != nil {
			t.Fatalf("second drought hop %d: %v", i, err)
		}
	}
	if a.Stats.ProbeFailures != pf+1 {
		t.Fatalf("ProbeFailures = %d after fresh episode's RetryEvery hops, want %d (interval not reset)",
			a.Stats.ProbeFailures, pf+1)
	}
	if a.Stats.Episodes != 2 {
		t.Fatalf("Episodes = %d, want 2", a.Stats.Episodes)
	}
}
