package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fbufs/internal/rings"
	"fbufs/internal/simtime"
)

// Directed epoch edge-case tests. Each one replays a fixed scenario under
// seeds {1, 2, 3}, where the seed perturbs only choices the epoch protocol
// promises are unobservable — how a reclaim sweep is chopped into batches,
// how many times the maintenance plane advances the epoch against a pinned
// worker — and asserts the full observable trace is byte-identical across
// seeds. A divergence means a supposedly-neutral scheduling choice leaked
// into the protocol's visible behavior.

// edgeTrace accumulates one run's observable protocol state as text.
type edgeTrace struct{ b strings.Builder }

func (tr *edgeTrace) mark(label string, r *rig) {
	st := r.mgr.Snapshot()
	fmt.Fprintf(&tr.b, "%s pending=%d allocs=%d frees=%d recycles=%d reclaimed=%d rejects=%d\n",
		label, r.mgr.EpochPending(), st.Allocs, st.Frees, st.Recycles,
		st.FramesReclaimed, st.AdmissionRejects)
}

func (tr *edgeTrace) event(format string, args ...interface{}) {
	fmt.Fprintf(&tr.b, format+"\n", args...)
}

// chop splits total into 1..total seed-random positive batches.
func chop(rng *rand.Rand, total int) []int {
	var parts []int
	for total > 0 {
		n := 1 + rng.Intn(total)
		parts = append(parts, n)
		total -= n
	}
	return parts
}

// advancePinned advances the epoch a seed-random number of times while at
// least one worker stays pinned, asserting no frame retires (the crash
// rule: epoch-deferred frames reclaim only after the epoch drains), and
// records only the aggregate so the trace is chop-invariant.
func advancePinned(t *testing.T, r *rig, rng *rand.Rand, tr *edgeTrace) {
	t.Helper()
	retired := 0
	for i := 1 + rng.Intn(3); i > 0; i-- {
		retired += r.mgr.AdvanceEpoch()
	}
	if retired != 0 {
		t.Fatalf("AdvanceEpoch retired %d frames under a pinned worker", retired)
	}
	tr.event("advance-pinned retired=0")
}

// requireIdenticalTraces runs the scenario under seeds 1..3 and compares.
func requireIdenticalTraces(t *testing.T, run func(t *testing.T, seed int64) string) {
	t.Helper()
	want := run(t, 1)
	for seed := int64(2); seed <= 3; seed++ {
		if got := run(t, seed); got != want {
			t.Fatalf("trace diverged between seed 1 and seed %d:\n--- seed 1 ---\n%s--- seed %d ---\n%s",
				seed, want, seed, got)
		}
	}
}

// TestEpochEdgeSpinThenBlockPinnedWorker: a worker pins its epoch, then
// parks in a ring's spin-then-block wait (an empty drain re-arms its spin
// window). While it lingers, the maintenance plane reclaims the path's idle
// frames — parking them — and advances the epoch; nothing may retire until
// a submission wakes the worker and it unpins. The seed chops the reclaim
// sweep and varies the advance count; the trace must not move.
func TestEpochEdgeSpinThenBlockPinnedWorker(t *testing.T) {
	requireIdenticalTraces(t, func(t *testing.T, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		tr := &edgeTrace{}
		r := newRig(t)
		p := r.path(t, CachedVolatile(), 1)
		ring, err := rings.NewPair(r.sys, "edge", 8,
			func() simtime.Time { return r.clk.Now() }, int(r.src.ID), int(r.dst.ID))
		if err != nil {
			t.Fatal(err)
		}
		w := r.mgr.RegisterEpochWorker()

		// Populate the free list with four idle one-page fbufs.
		const idle = 4
		var fs []*Fbuf
		for i := 0; i < idle; i++ {
			f, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		for _, f := range fs {
			if err := r.mgr.Free(f, r.src); err != nil {
				t.Fatal(err)
			}
		}
		tr.mark("idle", r)

		// The worker pins its epoch and polls its submission ring: the
		// empty drain re-arms the spin window, so it is now parked in
		// spin-then-block with its advertisement still published.
		w.Enter()
		if n, _ := ring.Drain(func(rings.Entry) error { return nil }); n != 0 {
			t.Fatalf("drained %d entries from an empty ring", n)
		}
		tr.event("worker parked spinning, pinned")

		// Maintenance: reclaim the idle frames in seed-chopped batches —
		// park order is path order regardless of the chop — then advance
		// against the pinned worker.
		total := 0
		for _, n := range chop(rng, idle) {
			total += r.mgr.ReclaimIdle(n)
		}
		if total != idle {
			t.Fatalf("reclaimed %d frames, want %d", total, idle)
		}
		tr.mark("reclaimed", r)
		advancePinned(t, r, rng, tr)
		tr.mark("still-parked", r)

		// A submission lands inside the worker's spin window (the clock
		// never advanced), wakes it for free, and the worker unpins.
		if err := ring.Submit(rings.Entry{Op: "wake", Descriptors: 1}); err != nil {
			t.Fatal(err)
		}
		woke, _ := ring.Drain(func(rings.Entry) error { return nil })
		rs := ring.Stats()
		tr.event("woke drained=%d spinhits=%d doorbells=%d", woke, rs.SpinHits, rs.Doorbells)
		w.Exit()

		// With the worker quiescent, one advance retires every park.
		tr.event("advance-unpinned retired=%d", r.mgr.AdvanceEpoch())
		tr.mark("drained", r)
		if err := r.mgr.CheckConverged(); err != nil {
			t.Fatal(err)
		}
		return tr.b.String()
	})
}

// TestEpochEdgeDomainDeathMidExchange: the receiving endpoint dies while a
// pinned worker holds a loaded and a previous magazine plus two live
// fbufs. The death closes the path and its depot; the unaware worker's
// next overflow pushes its previous magazine into the closed depot, whose
// ExchangeFull tears the stranded unit down (teardownStashed) — parking
// the frames, because the worker is still pinned. Everything the teardown
// parked retires only after the worker exits.
func TestEpochEdgeDomainDeathMidExchange(t *testing.T) {
	requireIdenticalTraces(t, func(t *testing.T, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		tr := &edgeTrace{}
		r := newRig(t)
		p := r.path(t, CachedVolatile(), 1)
		d := p.EnableDepot(2, 1)
		w := r.mgr.RegisterEpochWorker()
		mag := d.NewMagazine()

		// Six allocations; freeing the first four leaves prev=[f3,f4]
		// loaded locally and one full unit [f1,f2] in the depot.
		var fs []*Fbuf
		for i := 0; i < 6; i++ {
			f, err := mag.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		for _, f := range fs[:4] {
			if err := mag.Free(f, r.src); err != nil {
				t.Fatal(err)
			}
		}
		if inv := p.Depot().Inventory(); inv != 2 {
			t.Fatalf("depot inventory = %d before death, want 2", inv)
		}
		tr.mark("staged", r)

		// The worker pins, then the receiver dies mid-burst: the path
		// closes, the depot closes, and its unit tears down — parked, not
		// freed, because the worker's advertisement is still out.
		w.Enter()
		r.reg.Terminate(r.dst)
		tr.mark("receiver-dead", r)
		if pend := r.mgr.EpochPending(); pend == 0 {
			t.Fatal("death teardown under a pinned worker parked nothing")
		}

		// The stranded worker never saw the death. Its next two frees push
		// the stash to capacity; the overflow hands the previous magazine
		// to the now-closed depot, which must tear it down in place.
		for _, f := range fs[4:] {
			if err := mag.Free(f, r.src); err != nil {
				t.Fatal(err)
			}
		}
		if inv := p.Depot().Inventory(); inv != 0 {
			t.Fatalf("closed depot accepted a unit: inventory = %d", inv)
		}
		tr.mark("stranded-exchange", r)

		advancePinned(t, r, rng, tr)

		// Draining the magazine tears the rest down through the closed
		// path; the worker then unpins and the backlog retires at once.
		mag.Drain()
		tr.mark("drained-magazine", r)
		w.Exit()
		tr.event("advance-unpinned retired=%d", r.mgr.AdvanceEpoch())
		tr.mark("converged", r)
		if err := r.mgr.CheckConverged(); err != nil {
			t.Fatal(err)
		}
		return tr.b.String()
	})
}

// TestEpochEdgeAdmissionRefundVsEpoch: tenant chunk refunds are VA-side
// accounting and must not wait for physical frame retirement. After a
// rejection, evicting the tenant's path refunds its chunk immediately —
// while every frame of that chunk is still parked under a pinned worker —
// so later grants are admitted, regardless of how the epoch plane
// interleaves.
func TestEpochEdgeAdmissionRefundVsEpoch(t *testing.T) {
	requireIdenticalTraces(t, func(t *testing.T, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		tr := &edgeTrace{}
		r := newRig(t)
		adm := NewAdmission(1)
		cl := adm.Class("tenant", 1)
		r.mgr.SetAdmission(adm)
		p := r.path(t, CachedVolatile(), DefaultChunkPages)
		p.SetTenant(cl)
		w := r.mgr.RegisterEpochWorker()
		w.Enter()

		// Exhaust the share, then take a rejection.
		f1, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(); err == nil {
			t.Fatal("second grant admitted past the share")
		}
		tr.event("rejected inuse=%d", cl.InUse())

		// Free and evict: the chunk drains back and the tenant's charge is
		// refunded now — even though every frame of it is parked behind
		// the pinned worker's epoch.
		if err := r.mgr.Free(f1, r.src); err != nil {
			t.Fatal(err)
		}
		r.mgr.EvictPath(p)
		if cl.InUse() != 0 {
			t.Fatalf("InUse = %d after eviction, want 0 (refund must not wait for the epoch)", cl.InUse())
		}
		if r.mgr.EpochPending() == 0 {
			t.Fatal("eviction under a pinned worker parked nothing")
		}
		tr.mark("refunded-while-parked", r)
		advancePinned(t, r, rng, tr)

		// Each cycle carves a fresh chunk (eviction emptied the free list),
		// is admitted, and drains right back: the epoch backlog growing
		// underneath never holds a refund back.
		for i := 0; i < 16; i++ {
			f, err := p.Alloc()
			if err != nil {
				t.Fatalf("admitted grant %d: %v", i, err)
			}
			if err := r.mgr.Free(f, r.src); err != nil {
				t.Fatal(err)
			}
			r.mgr.EvictPath(p)
			if i%4 == 3 {
				tr.event("grants=%d inuse=%d pending=%d", i+1, cl.InUse(), r.mgr.EpochPending())
			}
		}
		tr.mark("regranted", r)

		w.Exit()
		tr.event("advance-unpinned retired=%d", r.mgr.AdvanceEpoch())
		tr.mark("converged", r)
		if err := r.mgr.CheckConverged(); err != nil {
			t.Fatal(err)
		}
		return tr.b.String()
	})
}
