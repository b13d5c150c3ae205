package machine

import (
	"testing"
	"testing/quick"

	"fbufs/internal/simtime"
)

func TestDecStationAnchors(t *testing.T) {
	c := DecStation5000()
	// Paper-anchored values.
	if c.PageClear != simtime.US(57) {
		t.Errorf("PageClear = %v, paper says 57us", c.PageClear)
	}
	if got := 2 * c.TLBMiss; got != simtime.US(3) {
		t.Errorf("two TLB misses = %v, Table 1 cached/volatile row is 3us", got)
	}
	// Table 1 volatile (uncached) row: frame alloc + map orig + map recv +
	// unmap recv + unmap orig + frame free + 2 TLB misses = 21us.
	row2 := c.FrameAlloc + 2*c.PTEMap + 2*c.PTEUnmap + c.FrameFree + 2*c.TLBMiss
	if row2 != simtime.US(21) {
		t.Errorf("volatile row composite = %v, want 21us", row2)
	}
	// Table 1 cached (non-volatile) row: two protection changes + misses.
	row3 := 2*c.ProtChange + 2*c.TLBMiss
	if row3 != simtime.US(29) {
		t.Errorf("cached row composite = %v, want 29us", row3)
	}
	// Plain fbufs row (uncached non-volatile): the uncached teardown path
	// plus a single protection change (secure at transfer; no restore,
	// because the buffer is destroyed rather than recycled).
	row4 := row2 + c.ProtChange
	if row4 != simtime.US(34) {
		t.Errorf("plain fbufs composite = %v, want 34us", row4)
	}
	// Copy must be the most expensive mechanism per page; COW faults land
	// in between.
	copyCost := 2*c.PageCopy + 2*c.TLBMiss
	cow := 2*c.COWMark + 2*(c.FaultTrap+c.PTEMap) + 2*c.TLBMiss
	if !(row2 < row3 && row3 < row4 && row4 < cow && cow < copyCost) {
		t.Errorf("ordering violated: %v %v %v %v %v", row2, row3, row4, cow, copyCost)
	}
}

func TestOsirisBusRates(t *testing.T) {
	c := DecStation5000()
	bits := float64(c.ATMCellPayload * 8)
	dmaRate := bits / float64(c.BusCellDMA) * 1000 // Mb/s
	if dmaRate < 360 || dmaRate > 375 {
		t.Errorf("DMA-startup-bound rate %.0f Mb/s, paper says 367", dmaRate)
	}
	effRate := bits / float64(c.BusCellDMA+c.BusContention) * 1000
	if effRate < 280 || effRate > 290 {
		t.Errorf("contended rate %.0f Mb/s, paper says 285", effRate)
	}
	linkRate := bits / float64(c.LinkCell) * 1000
	if linkRate < 510 || linkRate > 522 {
		t.Errorf("net link rate %.0f Mb/s, paper says 516", linkRate)
	}
	// 285 Mb/s is 55% of the 516 Mb/s net bandwidth (paper section 4).
	frac := effRate / linkRate
	if frac < 0.53 || frac > 0.57 {
		t.Errorf("I/O ceiling fraction %.2f, paper says 0.55", frac)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if !tlb.Touch(1, 100) {
		t.Fatal("first touch should miss")
	}
	if tlb.Touch(1, 100) {
		t.Fatal("second touch should hit")
	}
	// Same VPN, different ASID: distinct entry.
	if !tlb.Touch(2, 100) {
		t.Fatal("other ASID should miss")
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Touch(1, 1)
	tlb.Touch(1, 2)
	tlb.Touch(1, 3) // evicts (1,1)
	if !tlb.Touch(1, 1) {
		t.Fatal("evicted entry should miss")
	}
	if tlb.Touch(1, 3) {
		t.Fatal("resident entry should hit")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Touch(1, 5)
	tlb.Invalidate(1, 5)
	if !tlb.Touch(1, 5) {
		t.Fatal("invalidated entry should miss")
	}
	tlb.Invalidate(1, 999) // absent: no-op
}

func TestTLBInvalidateASID(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Touch(1, 1)
	tlb.Touch(1, 2)
	tlb.Touch(2, 1)
	tlb.InvalidateASID(1)
	if !tlb.Touch(1, 1) || !tlb.Touch(1, 2) {
		t.Fatal("asid-1 entries survived")
	}
	if tlb.Touch(2, 1) {
		t.Fatal("asid-2 entry was dropped")
	}
}

func TestTLBDefaultCapacity(t *testing.T) {
	tlb := NewTLB(0)
	// Fill beyond R3000 capacity; entry 0 must be evicted.
	for i := uint64(0); i <= TLBEntries; i++ {
		tlb.Touch(1, i)
	}
	if !tlb.Touch(1, 0) {
		t.Fatal("entry should have been evicted at capacity 64")
	}
}

func TestTLBNeverExceedsCapacity(t *testing.T) {
	// Property: after any touch sequence the ring holds at most capacity
	// keys, the index holds exactly one entry for each and nothing else,
	// and touching a resident key is a hit.
	f := func(keys []uint8) bool {
		tlb := NewTLB(4)
		for _, k := range keys {
			tlb.Touch(int(k%3), uint64(k))
		}
		if tlb.n > 4 {
			return false
		}
		indexed := 0
		for _, r := range tlb.index {
			if r != 0 {
				indexed++
			}
		}
		if indexed != tlb.n {
			return false
		}
		for q := 0; q < tlb.n; q++ {
			if s, ok := tlb.lookup(tlb.keys[tlb.slot(q)]); !ok || int(tlb.index[s]) != tlb.slot(q)+1 {
				return false
			}
		}
		for _, k := range resident(tlb) {
			if tlb.Touch(k.asid, k.vpn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTLBTouchAllocationFree: a miss evicts the oldest entry in place, so a
// full TLB takes misses without allocating.
func TestTLBTouchAllocationFree(t *testing.T) {
	tlb := NewTLB(0)
	vpn := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4*TLBEntries; i++ {
			tlb.Touch(1, vpn)
			vpn++
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per %d misses, want 0", allocs, 4*TLBEntries)
	}
}
