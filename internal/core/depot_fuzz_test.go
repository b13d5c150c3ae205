package core

import (
	"testing"

	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// newMagFuzzRig mirrors newRig without a *testing.T so the fuzz targets'
// seed registration (under *testing.F) can share it with the fuzz body.
func newMagFuzzRig() *rig {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 4096, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := NewManager(sys, reg)
	r := &rig{clk: clk, sys: sys, reg: reg, mgr: mgr}
	r.src = reg.New("src")
	r.net = reg.New("netserver")
	r.dst = reg.New("dst")
	for _, d := range []*domain.Domain{r.src, r.net, r.dst} {
		mgr.AttachDomain(d)
	}
	return r
}

// FuzzMagazine drives the magazine ops alone: fuzzDepotOps with every op
// byte decoded % 8, so only ops 0-7 (magazine allocs and frees, direct
// path allocations, facility frees, transfers and drains) occur.
func FuzzMagazine(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x00, 0x02})                   // alloc/free ping-pong
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x06, 0x03}) // two mags, drain between
	f.Add([]byte{0x04, 0x07, 0x00, 0x05, 0x00})             // direct alloc, transfer, direct free
	f.Add([]byte{0x00, 0x01, 0x02, 0x00, 0x03, 0x01, 0x07, 0x00, 0x06, 0x06})
	f.Add([]byte{0x04, 0x04, 0x04, 0x04, 0x03, 0x00, 0x03, 0x01, 0x03, 0x02, 0x03, 0x03})

	f.Fuzz(func(t *testing.T, ops []byte) { fuzzDepotOps(t, ops, 8) })
}

// FuzzDepot drives fuzzDepotOps over its whole op surface, every op byte
// decoded % 14.
func FuzzDepot(f *testing.F) {
	// Charge the free list into the depot, discharge it back, realloc.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x02, 0x00, 0x08, 0x00, 0x09, 0x00, 0x00, 0x00})
	// Pinned worker holds parked frames across an advance; exit releases.
	f.Add([]byte{0x0c, 0x00, 0x00, 0x00, 0x02, 0x00, 0x0a, 0x03, 0x0b, 0x00, 0x0c, 0x01, 0x0b, 0x00})
	// Enough churn to rotate prev, exchange with the depot, and spill.
	f.Add([]byte{
		0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x00, 0x06, 0x00, 0x07,
		0x02, 0x00, 0x02, 0x00, 0x02, 0x00, 0x02, 0x00, 0x02, 0x00, 0x02, 0x00, 0x02, 0x00, 0x02, 0x00,
	})
	// Eviction between allocation bursts, then depot discharge.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x02, 0x00, 0x09, 0x00})
	// Transfers and direct allocs mixed with epoch advances and drains.
	f.Add([]byte{0x00, 0x00, 0x07, 0x00, 0x04, 0x00, 0x05, 0x00, 0x06, 0x00, 0x0b, 0x00, 0x0a, 0x07})

	f.Fuzz(func(t *testing.T, ops []byte) { fuzzDepotOps(t, ops, 14) })
}

// fuzzDepotOps decodes ops, one op byte (taken % nops) and one selector
// byte per step, over two magazines sharing one depot-enabled
// cached/volatile path (unit 3, 2 shards, maxFull 2 so spills and shard
// assemblies are reachable with tiny sequences) and two registered epoch
// workers. Ops 0-7 interleave magazine allocs and frees with direct path
// allocations, full facility frees, transfers (which force the magazine's
// slow free path) and mid-sequence drains; ops 8-13 charge/discharge the
// depot, reclaim idle frames, advance the epoch, pin/unpin workers, and
// evict the path mid-stream. The contract under test: no interleaving of
// the magazines' fast and slow paths, depot exchanges, epoch parking, and
// eviction breaks the deferred-counter books (once drained, every magazine
// Alloc call is visible as exactly one hit or miss), the global counter
// invariants (Stats.Check), or convergence once the epochs drain
// (CheckConverged).
func fuzzDepotOps(t *testing.T, ops []byte, nops byte) {
	if len(ops) > 600 {
		ops = ops[:600]
	}
	r := newMagFuzzRig()
	san := r.mgr.EnableSanitizer()
	san.OnViolation = func(msg string) { t.Errorf("fbsan: %s", msg) }
	p, err := r.mgr.NewPath("depot-fuzz", CachedVolatile(), 1, r.src, r.dst)
	if err != nil {
		t.Fatal(err)
	}
	d := p.EnableDepot(3, 2)
	d.SetMaxFull(2)
	w1 := r.mgr.RegisterEpochWorker()
	w2 := r.mgr.RegisterEpochWorker()
	magA := d.NewMagazine()
	magB := d.NewMagazine()

	var live []*Fbuf // src-held live fbufs, in allocation order
	var magAllocCalls, allocs, frees uint64
	pick := func(sel byte) int { return int(sel) % len(live) }
	drop := func(i int) { live = append(live[:i], live[i+1:]...) }

	for i := 0; i < len(ops); i++ {
		op := ops[i] % nops
		var sel byte
		if i+1 < len(ops) {
			i++
			sel = ops[i]
		}
		switch op {
		case 0, 1: // magazine alloc
			mag := magA
			if op == 1 {
				mag = magB
			}
			magAllocCalls++
			fb, err := mag.Alloc()
			if err != nil {
				continue // quota/region exhaustion: legal, still a miss
			}
			allocs++
			if err := fb.TouchWrite(r.src, uint32(allocs)); err != nil {
				t.Fatal(err)
			}
			live = append(live, fb)
		case 2, 3: // magazine free (sole-holder fast path)
			if len(live) == 0 {
				continue
			}
			mag := magA
			if op == 3 {
				mag = magB
			}
			i := pick(sel)
			if err := mag.Free(live[i], r.src); err != nil {
				t.Fatalf("magazine free: %v", err)
			}
			frees++
			drop(i)
		case 4: // direct path alloc (full kernel-boundary path)
			fb, err := p.Alloc()
			if err != nil {
				continue
			}
			allocs++
			live = append(live, fb)
		case 5: // direct facility free
			if len(live) == 0 {
				continue
			}
			i := pick(sel)
			if err := r.mgr.Free(live[i], r.src); err != nil {
				t.Fatalf("facility free: %v", err)
			}
			frees++
			drop(i)
		case 6: // mid-sequence drain merges the deferred counters
			magA.Drain()
			magB.Drain()
		case 7: // transfer: receiver free + originator free, both slow path
			if len(live) == 0 {
				continue
			}
			i := pick(sel)
			fb := live[i]
			if err := r.mgr.Transfer(fb, r.src, r.dst); err != nil {
				t.Fatal(err)
			}
			if err := fb.TouchRead(r.dst); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Free(fb, r.dst); err != nil {
				t.Fatal(err)
			}
			if err := magA.Free(fb, r.src); err != nil {
				t.Fatalf("post-transfer originator free: %v", err)
			}
			frees += 2 // receiver's drop and the originator's both count
			drop(i)
		case 8: // charge free-list tail into the depot as one unit
			p.DepotCharge(1 + int(sel)%4)
		case 9: // discharge the whole depot inventory back
			p.DepotDischarge()
		case 10: // reclaim idle frames (parks them, epoch workers exist)
			r.mgr.ReclaimIdle(int(sel)%8 + 1)
		case 11: // advance the epoch, retiring what every worker passed
			r.mgr.AdvanceEpoch()
		case 12: // pin/unpin the epoch workers
			switch sel % 4 {
			case 0:
				w1.Enter()
			case 1:
				w1.Exit()
			case 2:
				w2.Enter()
			case 3:
				w2.Exit()
			}
		case 13: // evict: demote every free-listed and depot-held fbuf
			r.mgr.EvictPath(p)
		}
	}

	// Quiesce: free everything still held, drain the local and depot
	// inventories, deliver queued notices, unpin the workers, and
	// advance until every parked frame has retired.
	for _, fb := range live {
		if err := magA.Free(fb, r.src); err != nil {
			t.Fatalf("final free: %v", err)
		}
		frees++
	}
	magA.Drain()
	magB.Drain()
	p.DepotDischarge()
	doms := []*domain.Domain{r.reg.Kernel(), r.src, r.net, r.dst}
	for _, h := range doms {
		for _, o := range doms {
			r.mgr.DeliverNotices(h, o)
		}
	}
	w1.Exit()
	w2.Exit()
	for i := 0; i < 4 && r.mgr.EpochPending() > 0; i++ {
		r.mgr.AdvanceEpoch()
	}
	if pend := r.mgr.EpochPending(); pend != 0 {
		t.Fatalf("EpochPending = %d after quiescent advances, want 0", pend)
	}

	// Deferred-counter contract: a drained magazine holds nothing
	// locally, and every magazine Alloc call merged as one hit or miss
	// (a depot exchange counts as a miss).
	for name, mag := range map[string]*Magazine{"A": magA, "B": magB} {
		if d := mag.Depth(); d != 0 {
			t.Errorf("magazine %s depth %d after Drain", name, d)
		}
		h, m, rf, fl := mag.LocalStats()
		if h|m|rf|fl != 0 {
			t.Errorf("magazine %s local counters (%d,%d,%d,%d) not merged by Drain",
				name, h, m, rf, fl)
		}
	}
	cont := r.mgr.ContentionSnapshot()
	if got := cont.MagazineHits + cont.MagazineMisses; got != magAllocCalls {
		t.Errorf("hits+misses = %d, want %d (one per magazine Alloc call)",
			got, magAllocCalls)
	}
	stats := r.mgr.Snapshot()
	if stats.Allocs != allocs || stats.Frees != frees {
		t.Errorf("Allocs/Frees = %d/%d, want %d/%d",
			stats.Allocs, stats.Frees, allocs, frees)
	}
	if err := stats.Check(); err != nil {
		t.Errorf("stats invariants: %v", err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := r.mgr.CheckConverged(); err != nil {
		t.Errorf("leaked after quiescence: %v", err)
	}
}
