package netsim

import (
	"testing"

	"fbufs/internal/faults"
)

// lossyLinks returns a fault plane that drops about one PDU in every on
// both directed links of the null modem.
func lossyLinks(every int) *faults.Plane {
	p := faults.NewPlane(1)
	p.Link(LinkAB).DropPerMillion = 1_000_000 / uint32(every)
	p.Link(LinkBA).DropPerMillion = 1_000_000 / uint32(every)
	return p
}

// requireBothLinksDropped fails unless the plane dropped PDUs in both
// directions, so a run that wires only one link cannot pass.
func requireBothLinksDropped(t *testing.T, p *faults.Plane) {
	t.Helper()
	links := p.LinkSnapshot()
	if len(links) != 2 {
		t.Fatalf("plane has %d links, want LinkAB and LinkBA", len(links))
	}
	for _, l := range links {
		if l.Actions[faults.Drop] == 0 {
			t.Fatalf("link %d dropped none of its %d PDUs", l.Link, l.PDUs)
		}
	}
}

func TestSWPTransportLossless(t *testing.T) {
	res, err := Run(Config{
		Placement: UserUser,
		Opts:      cachedVolatile(),
		PDUBytes:  16 * 1024,
		MsgBytes:  64 * 1024,
		Count:     8,
		UseSWP:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 8 {
		t.Fatalf("delivered %d", res.Delivered)
	}
	if res.ThroughputMbps <= 0 {
		t.Fatal("no throughput")
	}
}

func TestSWPTransportSurvivesLoss(t *testing.T) {
	e, err := NewE2E(Config{
		Placement: UserUser,
		Opts:      cachedVolatile(),
		PDUBytes:  16 * 1024,
		MsgBytes:  48 * 1024,
		Count:     10,
		UseSWP:    true,
		Faults:    lossyLinks(7), // about one PDU in 7 lost, both directions
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 {
		t.Fatalf("delivered %d of 10 despite retransmission", res.Delivered)
	}
	requireBothLinksDropped(t, e.Cfg.Faults)
	if e.A.SWP.Retransmits == 0 {
		t.Fatal("no retransmissions despite loss")
	}
	if e.B.Test.ReceivedBytes != uint64(10*48*1024) {
		t.Fatalf("received %d bytes", e.B.Test.ReceivedBytes)
	}
	if err := e.A.Mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := e.B.Mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSWPTransportThroughputComparable(t *testing.T) {
	// Over a clean link, the SWP transport should reach the same I/O
	// ceiling as the harness-acknowledged configuration for large
	// messages.
	harness, err := Run(Config{Placement: UserUser, Opts: cachedVolatile(),
		PDUBytes: 16 * 1024, MsgBytes: 512 * 1024, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	swp, err := Run(Config{Placement: UserUser, Opts: cachedVolatile(),
		PDUBytes: 16 * 1024, MsgBytes: 512 * 1024, Count: 5, UseSWP: true})
	if err != nil {
		t.Fatal(err)
	}
	if swp.ThroughputMbps < 0.9*harness.ThroughputMbps {
		t.Errorf("SWP transport %.0f Mb/s vs harness %.0f", swp.ThroughputMbps, harness.ThroughputMbps)
	}
}

func TestLossWithoutSWPLosesMessages(t *testing.T) {
	// Negative control: the harness scheme has no retransmission, so a
	// lossy link must surface as missing deliveries. Two-PDU messages
	// leave enough of them delivered that B's acks meet the loss too.
	e, err := NewE2E(Config{Placement: UserUser, Opts: cachedVolatile(),
		PDUBytes: 16 * 1024, MsgBytes: 16 * 1024, Count: 6, Faults: lossyLinks(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("lossy link without SWP should fail to deliver everything")
	}
	requireBothLinksDropped(t, e.Cfg.Faults)
}
