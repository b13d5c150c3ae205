package main

import (
	"io"
	"testing"

	"fbufs/internal/faults"
)

// TestLossylink runs the reliable transfer lossless and under loss,
// asserting exit state: full delivery, invariants on both hosts, that
// both directions of the link lost PDUs, and that loss actually forced
// retransmissions.
func TestLossylink(t *testing.T) {
	for _, drop := range []int{0, 9, 5} {
		e, res, err := Run(io.Discard, drop)
		if err != nil {
			t.Fatalf("dropEvery=%d: %v", drop, err)
		}
		if res.Delivered != 16 {
			t.Fatalf("dropEvery=%d: delivered %d of 16", drop, res.Delivered)
		}
		if err := e.A.Mgr.CheckInvariants(); err != nil {
			t.Fatalf("dropEvery=%d host A invariants: %v", drop, err)
		}
		if err := e.B.Mgr.CheckInvariants(); err != nil {
			t.Fatalf("dropEvery=%d host B invariants: %v", drop, err)
		}
		if drop > 0 && e.A.SWP.Retransmits == 0 {
			t.Errorf("dropEvery=%d: loss produced zero retransmits", drop)
		}
		if drop > 0 {
			links := e.Cfg.Faults.LinkSnapshot()
			if len(links) != 2 {
				t.Fatalf("dropEvery=%d: %d lossy links, want both directions", drop, len(links))
			}
			for _, l := range links {
				if l.Actions[faults.Drop] == 0 {
					t.Errorf("dropEvery=%d: link %d dropped none of its %d PDUs", drop, l.Link, l.PDUs)
				}
			}
		}
		if drop == 0 && e.A.SWP.Retransmits != 0 {
			t.Errorf("lossless run retransmitted %d PDUs", e.A.SWP.Retransmits)
		}
	}
}
