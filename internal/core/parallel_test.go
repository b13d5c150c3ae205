package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fbufs/internal/machine"
	"fbufs/internal/vm"
)

// Parallel stress tests: real goroutines over one shared manager, meant to
// run under -race (CI's smp job does `go test -race -run Parallel ./...`).
// They assert the data-plane concurrency contract of DESIGN.md section 10:
// Alloc/Free/Transfer/DupRef from many goroutines are safe once path setup
// is done, and the facility's invariants hold at quiescence. fbsan stays
// enabled throughout so the lifecycle checking itself is exercised under
// concurrency.

// parallelRig builds a rig with the sanitizer collecting (not panicking on)
// violations; any violation fails the test at the end.
func parallelRig(t *testing.T) (*rig, func()) {
	t.Helper()
	r := newRig(t)
	san := r.mgr.EnableSanitizer()
	var mu sync.Mutex
	var violations []string
	san.OnViolation = func(msg string) {
		mu.Lock()
		violations = append(violations, msg)
		mu.Unlock()
	}
	return r, func() {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, v := range violations {
			t.Errorf("fbsan: %s", v)
		}
	}
}

// TestParallelMagazineAllocFree hammers one cached/volatile path from many
// goroutines, each through a private magazine.
func TestParallelMagazineAllocFree(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 8, 2000
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			mag := p.NewMagazine(0)
			defer mag.Drain()
			for op := 0; op < ops; op++ {
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
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)

	cont := r.mgr.ContentionSnapshot()
	if got := cont.MagazineHits + cont.MagazineMisses; got != workers*ops {
		t.Errorf("hits+misses = %d, want %d", got, workers*ops)
	}
	if cont.MagazineHits < workers*ops/2 {
		t.Errorf("MagazineHits = %d: steady state should be stash-served", cont.MagazineHits)
	}
	st := r.mgr.Snapshot()
	if st.Allocs != workers*ops || st.Frees != workers*ops {
		t.Errorf("Allocs/Frees = %d/%d, want %d each", st.Allocs, st.Frees, workers*ops)
	}
}

// TestParallelGlobalAllocFree is the same stress through the shared-lock
// path (no magazines): every op contends on the path free-list lock.
func TestParallelGlobalAllocFree(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 8, 1000
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				f, err := p.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestParallelTransfer runs the full reference flow — alloc, dup, transfer,
// free from both ends — concurrently, exercising the atomic refcount and
// write-permission transitions.
func TestParallelTransfer(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 6, 500
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				f, err := p.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.DupRef(f, r.src); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.dst); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestParallelFbufLookup runs FbufAt, HeldBy, Transfer and Free from several
// goroutines while another carves fbufs on its own paths, evicts them and
// closes the paths, so chunks enter and leave the chunk table under the
// lookups. Every lookup must find nil or an fbuf that contains the address,
// and a live fbuf's own addresses must find it.
func TestParallelFbufLookup(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)
	var churn []*DataPath
	for i := 0; i < 6; i++ {
		cp, err := r.mgr.NewPath(fmt.Sprintf("churn%d", i), CachedVolatile(), 2, r.net, r.dst)
		if err != nil {
			t.Fatal(err)
		}
		churn = append(churn, cp)
	}
	// Lookups range over the chunks the test can occupy.
	window := 12 * r.mgr.chunkPages * machine.PageSize

	const workers, ops = 3, 600
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(slot)))
			for op := 0; op < ops && errs[slot] == nil; op++ {
				for k := 0; k < 8; k++ {
					va := RegionBase + vm.VA(rng.Intn(window))
					if f := r.mgr.FbufAt(va); f != nil && !f.Contains(va) {
						errs[slot] = fmt.Errorf("FbufAt(%#x) found fbuf %#x of %d pages", uint64(va), uint64(f.Base), f.Pages)
					}
				}
				f, err := p.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
					errs[slot] = err
					return
				}
				if va := f.Base + vm.VA(rng.Intn(f.Size())); r.mgr.FbufAt(va) != f {
					errs[slot] = fmt.Errorf("FbufAt(%#x) misses live fbuf %#x", uint64(va), uint64(f.Base))
				}
				if !f.HeldBy(r.dst) || !f.HeldBy(r.src) || f.HeldBy(r.net) {
					errs[slot] = fmt.Errorf("fbuf %#x holders wrong after transfer", uint64(f.Base))
				}
				if err := r.mgr.Free(f, r.dst); err != nil {
					errs[slot] = err
					return
				}
				if err := r.mgr.Free(f, r.src); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var live []*Fbuf
		for round := 0; round < 3; round++ {
			for _, cp := range churn {
				for i := 0; i < 40; i++ {
					f, err := cp.Alloc()
					if err != nil {
						errs[workers] = err
						return
					}
					live = append(live, f)
				}
				for _, f := range live[:20] {
					if err := r.mgr.Free(f, r.net); err != nil {
						errs[workers] = err
						return
					}
				}
				r.mgr.EvictPath(cp)
				for _, f := range live[20:] {
					if err := r.mgr.Free(f, r.net); err != nil {
						errs[workers] = err
						return
					}
				}
				live = live[:0]
				if round == 2 {
					r.mgr.ClosePath(cp)
				}
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestParallelCrossPath splits workers across two independent paths of one
// manager, exercising the sharded (per-chunk, per-region) manager state.
func TestParallelCrossPath(t *testing.T) {
	r, checkSan := parallelRig(t)
	p1, err := r.mgr.NewPath("p1", CachedVolatile(), 1, r.src, r.dst)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.mgr.NewPath("p2", CachedVolatile(), 2, r.net, r.dst)
	if err != nil {
		t.Fatal(err)
	}

	const workers, ops = 8, 1000
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p, owner := p1, r.src
			if slot%2 == 1 {
				p, owner = p2, r.net
			}
			mag := p.NewMagazine(8)
			defer mag.Drain()
			for op := 0; op < ops; op++ {
				f, err := mag.Alloc()
				if err != nil {
					errs[slot] = err
					return
				}
				if err := mag.Free(f, owner); err != nil {
					errs[slot] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkSan()
	r.check(t)
}

// TestMagazineCounters pins the deferred-counter semantics single-threaded:
// hits are stash pops, misses are Alloc calls that found the stash empty
// (whether or not the refill found anything), refills and flushes count
// only operations that actually moved buffers, and locals merge into the
// shared Contention group on every miss, flush, and Drain.
func TestMagazineCounters(t *testing.T) {
	r := newRig(t)
	r.mgr.EnableSanitizer()
	p := r.path(t, CachedVolatile(), 1)
	mag := p.NewMagazine(4)

	// Empty stash, empty shared list: a miss that carves. The miss path
	// merges, so the shared group sees it at once — and no refill is
	// counted for a move of zero buffers.
	a, err := mag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	cont := r.mgr.ContentionSnapshot()
	if cont.MagazineMisses != 1 || cont.MagazineHits != 0 || cont.MagazineRefills != 0 {
		t.Fatalf("after carve miss: %+v", cont)
	}

	// Free to the stash, realloc: a hit, deferred locally until a merge.
	if err := mag.Free(a, r.src); err != nil {
		t.Fatal(err)
	}
	if mag.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", mag.Depth())
	}
	a, err = mag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, refills, flushes := mag.LocalStats()
	if hits != 1 || misses != 0 || refills != 0 || flushes != 0 {
		t.Fatalf("LocalStats = %d,%d,%d,%d, want 1,0,0,0 (hit deferred)", hits, misses, refills, flushes)
	}
	if cont = r.mgr.ContentionSnapshot(); cont.MagazineHits != 0 {
		t.Fatalf("MagazineHits = %d before any merge, want 0", cont.MagazineHits)
	}
	if err := mag.Free(a, r.src); err != nil {
		t.Fatal(err)
	}

	// Seed the shared free list with four buffers, empty the stash, and
	// miss again: one refill moves the whole hot tail (up to cap).
	seed := make([]*Fbuf, 4)
	for i := range seed {
		if seed[i], err = p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range seed {
		if err := r.mgr.Free(f, r.src); err != nil {
			t.Fatal(err)
		}
	}
	if a, err = mag.Alloc(); err != nil { // pops the stashed one: hit
		t.Fatal(err)
	}
	b, err := mag.Alloc() // stash empty: miss, refill of 4, pop 1
	if err != nil {
		t.Fatal(err)
	}
	if mag.Depth() != 3 {
		t.Fatalf("Depth after refill+pop = %d, want 3", mag.Depth())
	}
	cont = r.mgr.ContentionSnapshot()
	if cont.MagazineRefills != 1 || cont.MagazineMisses != 2 || cont.MagazineHits != 2 {
		t.Fatalf("after refill: %+v", cont)
	}

	// Fill the stash to capacity: the push that reaches cap flushes half
	// (the oldest end) back to the shared list under one lock.
	if err := mag.Free(a, r.src); err != nil { // push to 4 == cap: flush 2
		t.Fatal(err)
	}
	if mag.Depth() != 2 {
		t.Fatalf("Depth after flush = %d, want 2", mag.Depth())
	}
	cont = r.mgr.ContentionSnapshot()
	if cont.MagazineFlushes != 1 {
		t.Fatalf("MagazineFlushes = %d, want 1", cont.MagazineFlushes)
	}
	if err := mag.Free(b, r.src); err != nil { // push to 3 < cap: no flush
		t.Fatal(err)
	}
	if mag.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", mag.Depth())
	}
	if cont = r.mgr.ContentionSnapshot(); cont.MagazineFlushes != 1 {
		t.Fatalf("MagazineFlushes = %d after non-flushing push, want 1", cont.MagazineFlushes)
	}

	// Drain returns everything and merges the remaining locals; the
	// facility's books must balance afterwards.
	mag.Drain()
	if mag.Depth() != 0 {
		t.Fatalf("Depth after Drain = %d, want 0", mag.Depth())
	}
	if hits, misses, refills, flushes = mag.LocalStats(); hits+misses+refills+flushes != 0 {
		t.Fatalf("LocalStats after Drain = %d,%d,%d,%d, want zeros", hits, misses, refills, flushes)
	}
	st := r.mgr.Snapshot()
	if st.Allocs != st.Frees {
		t.Fatalf("Allocs = %d, Frees = %d at quiescence", st.Allocs, st.Frees)
	}
	r.check(t)
}

// TestMagazineFallbacks pins the slow paths: foreign-path and partial-drop
// frees route through the manager, and a magazine over an uncached path
// never stashes.
func TestMagazineFallbacks(t *testing.T) {
	r := newRig(t)
	r.mgr.EnableSanitizer()
	p := r.path(t, CachedVolatile(), 1)
	mag := p.NewMagazine(4)

	// Transferred ref outstanding: not the sole holder, so Free takes the
	// full path (notices, no stash).
	f, err := mag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	if err := mag.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	if mag.Depth() != 0 {
		t.Fatalf("partial drop stashed: Depth = %d, want 0", mag.Depth())
	}
	if err := r.mgr.Free(f, r.dst); err != nil {
		t.Fatal(err)
	}

	// Uncached path: Free tears the fbuf down instead of stashing.
	up, err := r.mgr.NewPath("uncached", Uncached(), 1, r.src, r.dst)
	if err != nil {
		t.Fatal(err)
	}
	umag := up.NewMagazine(4)
	uf, err := umag.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := umag.Free(uf, r.src); err != nil {
		t.Fatal(err)
	}
	if umag.Depth() != 0 {
		t.Fatalf("uncached free stashed: Depth = %d, want 0", umag.Depth())
	}

	mag.Drain()
	umag.Drain()
	r.check(t)
}
