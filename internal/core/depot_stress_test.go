package core

import (
	"sync"
	"testing"
)

// TestParallelDepotStress is the many-core soak of the PR 10 allocator: 16
// goroutines churn one depot-enabled path through private magazines,
// pinning and unpinning their epoch advertisements around bursts, while a
// maintenance goroutine concurrently reclaims idle frames, advances the
// epoch, and periodically evicts the path. Runs under CI's
// `go test -race -run Parallel` with fbsan collecting, so both the Go race
// detector and the lifecycle sanitizer watch every interleaving of
// magazine exchange, shard spill, epoch park/retire, and eviction teardown.
func TestParallelDepotStress(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)
	d := p.EnableDepot(4, 4)

	const workers, ops = 16, 1500
	epochWorkers := make([]*EpochWorker, workers)
	for i := range epochWorkers {
		// Control-plane rule: register before the worker starts allocating.
		epochWorkers[i] = r.mgr.RegisterEpochWorker()
	}

	stop := make(chan struct{})
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.mgr.ReclaimIdle(32)
			r.mgr.AdvanceEpoch()
			if i%16 == 15 {
				r.mgr.EvictPath(p)
			}
		}
	}()

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w := epochWorkers[slot]
			defer w.Exit()
			mag := d.NewMagazine()
			defer mag.Drain()
			for op := 0; op < ops; op++ {
				if op%64 == 0 {
					// Burst boundary: go quiescent, then re-pin at the
					// epoch current when the next burst starts.
					w.Exit()
					w.Enter()
				}
				f, err := mag.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := mag.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	maint.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Quiesce: every magazine already drained on worker exit and every
	// advertisement cleared; discharge the depot and advance until the
	// parked frames retire, then the full convergence check must hold.
	p.DepotDischarge()
	for i := 0; i < 4 && r.mgr.EpochPending() > 0; i++ {
		r.mgr.AdvanceEpoch()
	}
	checkSan()
	r.check(t)
	if err := r.mgr.CheckConverged(); err != nil {
		t.Errorf("leaked after quiescence: %v", err)
	}

	cont := r.mgr.ContentionSnapshot()
	if got := cont.MagazineHits + cont.MagazineMisses; got != workers*ops {
		t.Errorf("hits+misses = %d, want %d", got, workers*ops)
	}
	st := r.mgr.Snapshot()
	if st.Allocs != workers*ops || st.Frees != workers*ops {
		t.Errorf("Allocs/Frees = %d/%d, want %d each", st.Allocs, st.Frees, workers*ops)
	}
	if err := st.Check(); err != nil {
		t.Errorf("stats invariants: %v", err)
	}
}

// TestParallelExchangeStormSnapshot is the regression test for the PR 4
// latent merge bug fixed in this PR: mergeCounters runs on every depot
// exchange *without* the path lock, so DataPath.Allocated and the shared
// Stats group must be fully atomic. The storm forces continuous
// ExchangeEmpty/ExchangeFull traffic (magazine cap = depot unit, so every
// overflow and every dry stash exchanges) while a reader goroutine
// continuously snapshots the totals mid-merge. Under -race the old
// non-atomic read is a detector hit; single-threaded the test still pins
// the books: every snapshot is internally consistent and the final totals
// are exact.
func TestParallelExchangeStormSnapshot(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)
	d := p.EnableDepot(2, 2)

	const workers, ops = 8, 600
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Mid-storm reads of the merged totals. Full Stats.Check only
			// holds at quiescence (each merge is several atomic adds), but
			// two one-sided invariants hold at every instant because every
			// writer bumps stats.Allocs before p.Allocated and before the
			// hit/miss split: the global count may never trail a per-path
			// count read before it, and hits+misses may never exceed it.
			pathAllocs := p.AllocatedCount()
			st := r.mgr.Snapshot()
			if st.Allocs < pathAllocs {
				t.Errorf("Snapshot.Allocs = %d < path Allocated = %d read before it",
					st.Allocs, pathAllocs)
				return
			}
			if st.CacheHits+st.CacheMisses > st.Allocs {
				t.Errorf("mid-storm CacheHits+CacheMisses = %d > Allocs = %d",
					st.CacheHits+st.CacheMisses, st.Allocs)
				return
			}
		}
	}()

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// Bursts of three stash capacities: the loaded and previous
			// magazines both fill mid-burst, so every free burst pushes a
			// unit into the depot and every alloc burst pulls one back —
			// each exchange merging the deferred counters lock-free.
			mag := d.NewMagazine()
			defer mag.Drain()
			hold := make([]*Fbuf, 0, 6)
			for op := 0; op < ops; op++ {
				for len(hold) < cap(hold) {
					f, err := mag.Alloc()
					if err != nil {
						errs[slot] = err
						return
					}
					hold = append(hold, f)
				}
				for len(hold) > 0 {
					f := hold[len(hold)-1]
					hold = hold[:len(hold)-1]
					if err := mag.Free(f, r.src); err != nil {
						errs[slot] = err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	p.DepotDischarge()
	checkSan()
	r.check(t)

	const expect = workers * ops * 6 // each burst allocates and frees 6
	st := r.mgr.Snapshot()
	if st.Allocs != expect || st.Frees != expect {
		t.Errorf("Allocs/Frees = %d/%d, want %d each", st.Allocs, st.Frees, expect)
	}
	if got := p.AllocatedCount(); got != expect {
		t.Errorf("path Allocated = %d, want %d", got, expect)
	}
	cont := r.mgr.ContentionSnapshot()
	if got := cont.MagazineHits + cont.MagazineMisses; got != expect {
		t.Errorf("hits+misses = %d, want %d", got, expect)
	}
	if cont.DepotExchanges == 0 {
		t.Error("storm never exchanged with the depot — the merge race was not exercised")
	}
	if err := st.Check(); err != nil {
		t.Errorf("stats invariants: %v", err)
	}
	if err := r.mgr.CheckConverged(); err != nil {
		t.Errorf("leaked after quiescence: %v", err)
	}
}
