package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAdmissionShares pins the weighted-share arithmetic, including the
// rebalance on class registration and the one-chunk floor.
func TestAdmissionShares(t *testing.T) {
	a := NewAdmission(10)
	gold := a.Class("gold", 3)
	silver := a.Class("silver", 1)
	if gold.Share() != 7 || silver.Share() != 2 {
		t.Fatalf("shares gold=%d silver=%d, want 7/2", gold.Share(), silver.Share())
	}
	bronze := a.Class("bronze", 1)
	if gold.Share() != 6 || silver.Share() != 2 || bronze.Share() != 2 {
		t.Fatalf("rebalanced shares %d/%d/%d, want 6/2/2",
			gold.Share(), silver.Share(), bronze.Share())
	}

	tiny := NewAdmission(1)
	big := tiny.Class("big", 100)
	small := tiny.Class("small", 1)
	if small.Share() != 1 {
		t.Fatalf("small share = %d, want the one-chunk floor", small.Share())
	}
	if big.Share() < 1 {
		t.Fatalf("big share = %d", big.Share())
	}
}

// TestAdmissionRejectsAlloc drives a path's tenant over its share: the
// carve must fail with ErrAdmission (an alloc failure, counted in both the
// manager stats and the class), while free-list hits — chunks already
// charged — stay exempt. Evicting the path releases the charge.
func TestAdmissionRejectsAlloc(t *testing.T) {
	r := newRig(t)
	adm := NewAdmission(1)
	cl := adm.Class("only", 1)
	r.mgr.SetAdmission(adm)
	// Fbufs the size of a chunk: every concurrently-live fbuf needs its
	// own chunk grant, so the share is exhausted by a single allocation.
	p := r.path(t, CachedVolatile(), DefaultChunkPages)
	p.SetTenant(cl)

	f1, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if cl.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", cl.InUse())
	}
	_, err = p.Alloc()
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("second alloc: %v, want ErrAdmission", err)
	}
	if !IsAllocFailure(err) {
		t.Fatal("ErrAdmission must be classified as an alloc failure")
	}
	if cl.Rejects() != 1 {
		t.Fatalf("class rejects = %d, want 1", cl.Rejects())
	}
	st := r.mgr.Snapshot()
	if st.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", st.AdmissionRejects)
	}
	if st.AdmissionRejects > st.AllocFailures {
		t.Fatalf("invariant: AdmissionRejects %d > AllocFailures %d",
			st.AdmissionRejects, st.AllocFailures)
	}

	// Recycled fbufs come off the free list without a new grant — no
	// admission check, the chunk stays charged.
	if err := r.mgr.Free(f1, r.src); err != nil {
		t.Fatal(err)
	}
	f2, err := p.Alloc()
	if err != nil {
		t.Fatalf("free-list alloc after reject: %v", err)
	}
	if cl.InUse() != 1 {
		t.Fatalf("InUse = %d after free-list reuse, want 1", cl.InUse())
	}
	if err := r.mgr.Free(f2, r.src); err != nil {
		t.Fatal(err)
	}

	// Demoting the path tears down the free list, releasing the chunk
	// and with it the tenant's charge.
	r.mgr.EvictPath(p)
	if cl.InUse() != 0 {
		t.Fatalf("InUse = %d after eviction, want 0", cl.InUse())
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
	r.check(t)
}

// TestAdmissionNilTenantUnlimited: paths without a tenant class bypass the
// controller entirely.
func TestAdmissionNilTenantUnlimited(t *testing.T) {
	r := newRig(t)
	adm := NewAdmission(1)
	adm.Class("starved", 1)
	r.mgr.SetAdmission(adm)
	p := r.path(t, CachedVolatile(), DefaultChunkPages)
	var held []*Fbuf
	for i := 0; i < 3; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatalf("untenanted alloc %d: %v", i, err)
		}
		held = append(held, f)
	}
	for _, f := range held {
		if err := r.mgr.Free(f, r.src); err != nil {
			t.Fatal(err)
		}
	}
	r.check(t)
}

// TestParallelQuotaAdmission has concurrent allocators from two paths of
// one tenant hammering both the per-path quota and the tenant share, under
// -race and fbsan. Every failure must be exactly ErrQuota or ErrAdmission,
// and at quiescence the counters must satisfy the stats invariants.
func TestParallelQuotaAdmission(t *testing.T) {
	r, checkSan := parallelRig(t)
	adm := NewAdmission(4)
	cl := adm.Class("tenant", 1)
	r.mgr.SetAdmission(adm)
	pa := r.path(t, CachedVolatile(), DefaultChunkPages)
	pb := r.path(t, CachedVolatile(), DefaultChunkPages)
	pa.SetTenant(cl)
	pb.SetTenant(cl)
	pa.SetQuota(3)
	pb.SetQuota(3)

	const workers, ops = 8, 300
	var rejected atomic.Uint64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p := pa
			if slot%2 == 1 {
				p = pb
			}
			for op := 0; op < ops; op++ {
				f, err := p.Alloc()
				if err != nil {
					if errors.Is(err, ErrQuota) || errors.Is(err, ErrAdmission) {
						rejected.Add(1)
						continue
					}
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
	st := r.mgr.Snapshot()
	if st.AdmissionRejects != cl.Rejects() {
		t.Fatalf("manager counted %d admission rejects, class %d",
			st.AdmissionRejects, cl.Rejects())
	}
	if st.AdmissionRejects > st.AllocFailures {
		t.Fatalf("AdmissionRejects %d > AllocFailures %d", st.AdmissionRejects, st.AllocFailures)
	}
	checkSan()
	r.check(t)
}

// TestParallelSetQuota is the satellite regression for the SetQuota/Quota
// data race: concurrent writers retuning the quota while allocators read
// it must be clean under -race (both sides are atomic now).
func TestParallelSetQuota(t *testing.T) {
	r, checkSan := parallelRig(t)
	p := r.path(t, CachedVolatile(), 1)

	const workers, ops = 4, 500
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				if slot == 0 {
					p.SetQuota(1 + op%4)
					_ = p.Quota()
					continue
				}
				f, err := p.Alloc()
				if err != nil {
					if errors.Is(err, ErrQuota) {
						continue
					}
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
