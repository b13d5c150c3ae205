package core

import (
	"errors"
	"strings"
	"testing"

	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// rig is a single simulated host for unit tests.
type rig struct {
	clk *simtime.Clock
	sys *vm.System
	reg *domain.Registry
	mgr *Manager
	src *domain.Domain
	net *domain.Domain
	dst *domain.Domain
}

func newRig(t testing.TB) *rig {
	t.Helper()
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

func (r *rig) path(t testing.TB, opts Options, pages int, doms ...*domain.Domain) *DataPath {
	t.Helper()
	if len(doms) == 0 {
		doms = []*domain.Domain{r.src, r.dst}
	}
	p, err := r.mgr.NewPath("test", opts, pages, doms...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (r *rig) check(t *testing.T) {
	t.Helper()
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// oneHop runs the paper's first-experiment loop body once: allocate, write
// one word per page, transfer, receiver reads one word per page, receiver
// frees, originator frees.
func (r *rig) oneHop(t *testing.T, p *DataPath) {
	t.Helper()
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.TouchWrite(r.src, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	if err := f.TouchRead(r.dst); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(f, r.dst); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
}

// TestCachedHopAllocationFree: a steady-state cached/volatile hop —
// allocate, transfer, both frees, deliver notices — allocates nothing.
func TestCachedHopAllocationFree(t *testing.T) {
	r := newRig(t)
	if r.mgr.SanitizerEnabled() {
		t.Skip("fbsan allocates by design: it saves canary bytes")
	}
	p := r.path(t, CachedVolatile(), 4)
	hop := func() {
		r.oneHop(t, p)
		r.mgr.DeliverNotices(r.dst, r.src)
	}
	hop()
	if n := testing.AllocsPerRun(100, hop); n != 0 {
		t.Errorf("cached/volatile hop: %v allocs, want 0", n)
	}
}

func TestDataIntegrityThroughTransfer(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, f.Size())
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := f.Write(r.src, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, f.Size())
	if err := f.Read(r.dst, 0, got); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], payload[i])
		}
	}
	r.check(t)
}

func TestReceiverCannotWrite(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := f.Write(r.src, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	err := f.Write(r.dst, 0, []byte("y"))
	var ae *vm.AccessError
	if !errors.As(err, &ae) {
		t.Fatalf("receiver write: %v", err)
	}
}

func TestVolatileOriginatorKeepsWriting(t *testing.T) {
	// Volatile fbufs: the receiver must assume contents may change
	// asynchronously until it secures the fbuf.
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("before"))
	r.mgr.Transfer(f, r.src, r.dst)
	if err := f.Write(r.src, 0, []byte("after!")); err != nil {
		t.Fatalf("volatile originator write blocked: %v", err)
	}
	got := make([]byte, 6)
	f.Read(r.dst, 0, got)
	if string(got) != "after!" {
		t.Fatalf("receiver sees %q", got)
	}
}

func TestSecureStopsOriginator(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("data"))
	r.mgr.Transfer(f, r.src, r.dst)
	if err := r.mgr.Secure(f, r.dst); err != nil {
		t.Fatal(err)
	}
	if !f.Secured() {
		t.Fatal("not marked secured")
	}
	if err := f.Write(r.src, 0, []byte("evil")); err == nil {
		t.Fatal("secured originator could write")
	}
	// Idempotent.
	if err := r.mgr.Secure(f, r.dst); err != nil {
		t.Fatal(err)
	}
	// Recycling restores write permission.
	r.mgr.Free(f, r.dst)
	r.mgr.Free(f, r.src)
	f2, _ := p.Alloc()
	if f2 != f {
		t.Fatal("LIFO should return the same fbuf")
	}
	if err := f2.Write(r.src, 0, []byte("new")); err != nil {
		t.Fatalf("write permission not restored: %v", err)
	}
	r.check(t)
}

func TestSecureByNonHolderRejected(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Secure(f, r.dst); err != ErrNotHolder {
		t.Fatalf("want ErrNotHolder, got %v", err)
	}
}

func TestSecureTrustedOriginatorNoOp(t *testing.T) {
	r := newRig(t)
	k := r.reg.Kernel()
	p := r.path(t, CachedVolatile(), 1, k, r.dst)
	f, _ := p.Alloc()
	f.Write(k, 0, []byte("pdu"))
	r.mgr.Transfer(f, k, r.dst)
	before := r.clk.Now()
	if err := r.mgr.Secure(f, r.dst); err != nil {
		t.Fatal(err)
	}
	if f.Secured() {
		t.Fatal("trusted originator was secured")
	}
	if r.clk.Now() != before {
		t.Fatal("no-op secure charged time")
	}
}

func TestNonVolatileEagerEnforcement(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedNonVolatile(), 1)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("x"))
	r.mgr.Transfer(f, r.src, r.dst)
	if !f.Secured() {
		t.Fatal("non-volatile transfer did not secure")
	}
	if err := f.Write(r.src, 0, []byte("y")); err == nil {
		t.Fatal("originator wrote after non-volatile transfer")
	}
}

func TestNonVolatileKernelOriginatorNotSecured(t *testing.T) {
	r := newRig(t)
	k := r.reg.Kernel()
	p := r.path(t, CachedNonVolatile(), 1, k, r.dst)
	f, _ := p.Alloc()
	r.mgr.Transfer(f, k, r.dst)
	if f.Secured() {
		t.Fatal("kernel-originated fbuf was secured")
	}
}

func TestCopySemantics(t *testing.T) {
	// The sender retains access after a transfer (copy semantics), and a
	// third domain can receive the same fbuf from the middle domain.
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1, r.src, r.net, r.dst)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("chain"))
	if err := r.mgr.Transfer(f, r.src, r.net); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Transfer(f, r.net, r.dst); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*domain.Domain{r.src, r.net, r.dst} {
		got := make([]byte, 5)
		if err := f.Read(d, 0, got); err != nil {
			t.Fatalf("%s read: %v", d, err)
		}
		if string(got) != "chain" {
			t.Fatalf("%s sees %q", d, got)
		}
	}
	if f.Refs() != 3 {
		t.Fatalf("refs %d", f.Refs())
	}
	r.mgr.Free(f, r.net)
	r.mgr.Free(f, r.dst)
	r.mgr.Free(f, r.src)
	if p.FreeListLen() != 1 {
		t.Fatalf("free list %d", p.FreeListLen())
	}
	r.check(t)
}

func TestTransferByNonHolder(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Transfer(f, r.dst, r.net); err != ErrNotHolder {
		t.Fatalf("want ErrNotHolder, got %v", err)
	}
}

func TestFreeByNonHolder(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Free(f, r.dst); err != ErrNotHolder {
		t.Fatalf("want ErrNotHolder, got %v", err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(f, r.src); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestCachedReuseIsLIFO(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	r.mgr.Free(a, r.src)
	r.mgr.Free(b, r.src) // b freed last -> reused first
	c, _ := p.Alloc()
	if c != b {
		t.Fatal("free list is not LIFO")
	}
	d, _ := p.Alloc()
	if d != a {
		t.Fatal("second alloc should reuse a")
	}
}

// TestTable1CachedVolatileSteadyState is the calibration anchor: in the
// cached/volatile steady state a one-hop transfer costs exactly two TLB
// misses per page — 3 us, the paper's Table 1 headline.
func TestTable1CachedVolatileSteadyState(t *testing.T) {
	r := newRig(t)
	const pages = 64 // 2*pages > TLB capacity, so every touch misses
	p := r.path(t, CachedVolatile(), pages)
	r.oneHop(t, p) // warm-up builds mappings
	start := r.clk.Now()
	r.oneHop(t, p)
	perPage := (r.clk.Now() - start) / pages
	if want := simtime.US(3); perPage != want {
		t.Fatalf("cached/volatile steady state: %v per page, want %v", perPage, want)
	}
	if r.mgr.Snapshot().CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
	r.check(t)
}

func TestTable1CachedNonVolatile(t *testing.T) {
	r := newRig(t)
	const pages = 64
	p := r.path(t, CachedNonVolatile(), pages)
	r.oneHop(t, p)
	start := r.clk.Now()
	r.oneHop(t, p)
	perPage := (r.clk.Now() - start) / pages
	if want := simtime.US(29); perPage != want {
		t.Fatalf("cached non-volatile: %v per page, want %v", perPage, want)
	}
}

func TestTable1UncachedVolatile(t *testing.T) {
	r := newRig(t)
	const pages = 32
	opts := Uncached()
	opts.NoClear = true // Table 1 excludes clearing cost (paper sec. 4)
	// Per-fbuf costs (VA alloc/free, chunk kernel calls) are constant per
	// message; measure the per-page incremental cost by comparing two
	// sizes, as the paper does.
	run := func(pg int) simtime.Duration {
		start := r.clk.Now()
		f, err := r.mgr.AllocUncached(r.src, pg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.TouchWrite(r.src, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
			t.Fatal(err)
		}
		if err := f.TouchRead(r.dst); err != nil {
			t.Fatal(err)
		}
		r.mgr.Free(f, r.dst)
		r.mgr.Free(f, r.src)
		return r.clk.Now() - start
	}
	run(pages) // warm the TLB state machinery
	d1 := run(pages)
	d2 := run(2 * pages)
	perPage := (d2 - d1) / pages
	if want := simtime.US(21); perPage != want {
		t.Fatalf("uncached volatile incremental: %v per page, want %v", perPage, want)
	}
	r.check(t)
}

func TestTable1UncachedNonVolatile(t *testing.T) {
	r := newRig(t)
	const pages = 32
	opts := UncachedNonVolatile()
	opts.NoClear = true
	run := func(pg int) simtime.Duration {
		start := r.clk.Now()
		f, err := r.mgr.AllocUncached(r.src, pg, opts)
		if err != nil {
			t.Fatal(err)
		}
		f.TouchWrite(r.src, 1)
		r.mgr.Transfer(f, r.src, r.dst)
		f.TouchRead(r.dst)
		r.mgr.Free(f, r.dst)
		r.mgr.Free(f, r.src)
		return r.clk.Now() - start
	}
	run(pages)
	d1 := run(pages)
	d2 := run(2 * pages)
	perPage := (d2 - d1) / pages
	// 21us of uncached mapping work plus one protection change to secure
	// at transfer time. (No restore: an uncached fbuf is torn down at
	// free, not recycled, so the second ProtChange of the cached
	// non-volatile case never happens.)
	if want := simtime.US(34); perPage != want {
		t.Fatalf("uncached non-volatile incremental: %v per page, want %v", perPage, want)
	}
}

func TestUncachedClearingCost(t *testing.T) {
	// Without NoClear, recycled dirty frames are zero-filled at 57us per
	// page — the cost the caching optimization eliminates.
	r := newRig(t)
	opts := Uncached()
	f, _ := r.mgr.AllocUncached(r.src, 4, opts)
	f.TouchWrite(r.src, 0xBAD)
	r.mgr.Free(f, r.src)
	start := r.clk.Now()
	f2, _ := r.mgr.AllocUncached(r.src, 4, opts)
	alloc := r.clk.Now() - start
	min := 4 * r.sys.Cost.PageClear
	if alloc < min {
		t.Fatalf("dirty realloc charged %v, want at least %v for clearing", alloc, min)
	}
	// And the frames really are zero.
	buf := make([]byte, 8)
	f2.Read(r.src, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("recycled frame not cleared")
		}
	}
}

func TestCachedSkipsClearing(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 4)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("old data"))
	r.mgr.Free(f, r.src)
	start := r.clk.Now()
	f2, _ := p.Alloc()
	if f2 != f {
		t.Fatal("expected reuse")
	}
	if d := r.clk.Now() - start; d != 0 {
		t.Fatalf("cached realloc charged %v", d)
	}
	// Old contents persist — safe because only this path's domains ever
	// see this fbuf.
	buf := make([]byte, 8)
	f2.Read(r.src, 0, buf)
	if string(buf) != "old data" {
		t.Fatalf("contents %q", buf)
	}
}

func TestNoticeFlow(t *testing.T) {
	// Receiver frees last -> fbuf drains until the deallocation notice is
	// piggybacked back to the owning domain.
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	r.mgr.Transfer(f, r.src, r.dst)
	r.mgr.Free(f, r.src) // originator done first
	if f.State() != StateLive {
		t.Fatalf("state %v", f.State())
	}
	r.mgr.Free(f, r.dst) // receiver is last
	if f.State() != StateDrainingNotice {
		t.Fatalf("state %v, want draining", f.State())
	}
	if p.FreeListLen() != 0 {
		t.Fatal("fbuf recycled before notice delivery")
	}
	// The next RPC reply from dst to src carries the notice.
	r.mgr.DeliverNotices(r.dst, r.src)
	if f.State() != StateFree || p.FreeListLen() != 1 {
		t.Fatalf("after delivery: state %v, free list %d", f.State(), p.FreeListLen())
	}
	if r.mgr.Snapshot().NoticesPiggy != 1 {
		t.Fatalf("piggy notices %d", r.mgr.Snapshot().NoticesPiggy)
	}
	r.check(t)
}

func TestNoticeOverflowForcesExplicitMessage(t *testing.T) {
	r := newRig(t)
	r.mgr.NoticeLimit = 4
	p := r.path(t, CachedVolatile(), 1)
	for i := 0; i < 4; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		r.mgr.Transfer(f, r.src, r.dst)
		r.mgr.Free(f, r.src)
		r.mgr.Free(f, r.dst)
	}
	if r.mgr.Snapshot().NoticesExplicit != 4 {
		t.Fatalf("explicit notices %d, want 4", r.mgr.Snapshot().NoticesExplicit)
	}
	if p.FreeListLen() != 4 {
		t.Fatalf("free list %d", p.FreeListLen())
	}
}

func TestQuotaLimitsChunks(t *testing.T) {
	// "An incorrect or malicious domain may fail to deallocate fbufs...
	// the kernel limits the number of chunks" (section 3.3).
	r := newRig(t)
	p := r.path(t, CachedVolatile(), DefaultChunkPages) // 1 fbuf per chunk
	p.SetQuota(2)
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != ErrQuota {
		t.Fatalf("want ErrQuota, got %v", err)
	}
	r.check(t)
}

func TestRegionExhaustion(t *testing.T) {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 64, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := NewManagerGeometry(sys, reg, 4, 2) // tiny region: 2 chunks
	src := reg.New("src")
	mgr.AttachDomain(src)
	p, err := mgr.NewPath("p", Options{Cached: true, Volatile: true}, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	p.SetQuota(100)
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != ErrRegionFull {
		t.Fatalf("want ErrRegionFull, got %v", err)
	}
}

func TestReclaimAndLazyRefill(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 4)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("will vanish"))
	r.mgr.Transfer(f, r.src, r.dst)
	r.mgr.Free(f, r.dst)
	r.mgr.Free(f, r.src)
	allocatedBefore := r.sys.Mem.Allocated()
	n := r.mgr.ReclaimIdle(4)
	if n != 4 {
		t.Fatalf("reclaimed %d frames", n)
	}
	if r.sys.Mem.Allocated() != allocatedBefore-4 {
		t.Fatalf("frames not returned: %d -> %d", allocatedBefore, r.sys.Mem.Allocated())
	}
	// Reuse: first touch faults, refills, clears (frame may be dirty).
	f2, _ := p.Alloc()
	if f2 != f {
		t.Fatal("expected reuse of reclaimed fbuf")
	}
	if err := f2.Write(r.src, 0, []byte("fresh")); err != nil {
		t.Fatalf("write after reclaim: %v", err)
	}
	if r.mgr.Snapshot().LazyRefills == 0 {
		t.Fatal("no lazy refill recorded")
	}
	// Receiver must also be able to fault its mapping back in.
	r.mgr.Transfer(f2, r.src, r.dst)
	buf := make([]byte, 5)
	if err := f2.Read(r.dst, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "fresh" {
		t.Fatalf("receiver sees %q", buf)
	}
	r.check(t)
}

func TestVolatileBadReadGetsEmptyLeaf(t *testing.T) {
	// Section 3.2.4: a read to an fbuf-region address the domain has no
	// permission for completes against a synthesized empty-leaf page.
	r := newRig(t)
	marker := []byte{0xEE, 0x0F}
	r.mgr.EmptyLeafInit = func(b []byte) { copy(b, marker) }
	p := r.path(t, CachedVolatile(), 1, r.src, r.net)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("secret"))
	// dst never received the fbuf; its read completes with leaf content.
	buf := make([]byte, 2)
	if err := f.Read(r.dst, 0, buf); err != nil {
		t.Fatalf("volatile bad read should complete: %v", err)
	}
	if buf[0] != 0xEE || buf[1] != 0x0F {
		t.Fatalf("leaf content %v", buf)
	}
	// A write to the same address is still a violation.
	if err := f.Write(r.dst, 0, []byte{1}); err == nil {
		t.Fatal("bad write completed")
	}
	r.check(t)
}

func TestDomainTerminationReleasesRefs(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, _ := p.Alloc()
	r.mgr.Transfer(f, r.src, r.dst)
	r.mgr.Free(f, r.src)
	// dst dies abnormally while holding the last reference.
	r.reg.Terminate(r.dst)
	// Its endpoint destruction deallocates the fbuf; path is closed and
	// the fbuf fully torn down.
	if f.State() == StateLive {
		t.Fatalf("fbuf still live after holder death")
	}
	if err := r.sys.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOriginatorDeathRetainsChunksUntilDrained(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, _ := p.Alloc()
	f.Write(r.src, 0, []byte("survivor"))
	r.mgr.Transfer(f, r.src, r.dst)
	r.mgr.Free(f, r.src)
	r.reg.Terminate(r.src)
	// dst still holds a reference: the data must remain readable.
	buf := make([]byte, 8)
	if err := f.Read(r.dst, 0, buf); err != nil {
		t.Fatalf("read after originator death: %v", err)
	}
	if string(buf) != "survivor" {
		t.Fatalf("got %q", buf)
	}
	// When dst finally frees, everything drains.
	if err := r.mgr.Free(f, r.dst); err != nil {
		t.Fatal(err)
	}
	if r.sys.Mem.Allocated() != 0 {
		t.Fatalf("%d frames leaked after drain", r.sys.Mem.Allocated())
	}
}

func TestAllocAfterPathCloseFails(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	r.mgr.ClosePath(p)
	if _, err := p.Alloc(); err != ErrPathClosed {
		t.Fatalf("want ErrPathClosed, got %v", err)
	}
}

func TestTransferToUnattachedDomain(t *testing.T) {
	r := newRig(t)
	stranger := r.reg.New("stranger") // never attached
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Transfer(f, r.src, stranger); err != ErrNotAttached {
		t.Fatalf("want ErrNotAttached, got %v", err)
	}
}

func TestUncachedMappingsTornDownAtFree(t *testing.T) {
	r := newRig(t)
	opts := Uncached()
	opts.NoClear = true
	f, _ := r.mgr.AllocUncached(r.src, 2, opts)
	f.TouchWrite(r.src, 1)
	r.mgr.Transfer(f, r.src, r.dst)
	f.TouchRead(r.dst)
	dstPages := r.dst.AS.MappedPages()
	if dstPages != 2 {
		t.Fatalf("dst has %d fbuf pages mapped", dstPages)
	}
	r.mgr.Free(f, r.dst)
	if r.dst.AS.MappedPages() != 0 {
		t.Fatal("uncached receiver mappings survived free")
	}
	r.mgr.Free(f, r.src)
	if r.src.AS.MappedPages() != 0 {
		t.Fatal("uncached originator mappings survived recycle")
	}
	if r.sys.Mem.Allocated() != 0 {
		t.Fatalf("%d frames leaked", r.sys.Mem.Allocated())
	}
	r.check(t)
}

func TestCachedMappingsPersistAcrossFree(t *testing.T) {
	r := newRig(t)
	const pages = 2
	p := r.path(t, CachedVolatile(), pages)
	f, _ := p.Alloc()
	f.TouchWrite(r.src, 1)
	r.mgr.Transfer(f, r.src, r.dst)
	f.TouchRead(r.dst)
	r.mgr.Free(f, r.dst)
	r.mgr.Free(f, r.src)
	if r.dst.AS.MappedPages() != pages || r.src.AS.MappedPages() != pages {
		t.Fatalf("cached mappings torn down: src=%d dst=%d",
			r.src.AS.MappedPages(), r.dst.AS.MappedPages())
	}
	// Second transfer builds no mappings.
	before := r.mgr.Snapshot().MappingsBuilt
	f2, _ := p.Alloc()
	r.mgr.Transfer(f2, r.src, r.dst)
	if r.mgr.Snapshot().MappingsBuilt != before {
		t.Fatal("cached re-transfer built mappings")
	}
}

func TestPathValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.mgr.NewPath("empty", CachedVolatile(), 1); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := r.mgr.NewPath("huge", CachedVolatile(), DefaultChunkPages+1, r.src); err == nil {
		t.Fatal("oversized fbuf accepted")
	}
	if _, err := r.mgr.NewPath("zero", CachedVolatile(), 0, r.src); err == nil {
		t.Fatal("zero-page fbuf accepted")
	}
}

func TestAllocUncachedValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.mgr.AllocUncached(r.src, 0, Uncached()); err == nil {
		t.Fatal("zero-page uncached accepted")
	}
	stranger := r.reg.New("stranger")
	if _, err := r.mgr.AllocUncached(stranger, 1, Uncached()); err != ErrNotAttached {
		t.Fatalf("want ErrNotAttached, got %v", err)
	}
}

func TestStatsProgression(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	r.oneHop(t, p)
	r.oneHop(t, p)
	s := r.mgr.Snapshot()
	if s.Allocs != 2 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("alloc stats %+v", s)
	}
	if s.Transfers != 2 || s.Frees != 4 || s.Recycles != 2 {
		t.Fatalf("lifecycle stats %+v", s)
	}
}

func TestErrorMessagesMentionState(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	r.mgr.Free(f, r.src)
	err := r.mgr.Transfer(f, r.src, r.dst)
	if err == nil || !strings.Contains(err.Error(), "free") {
		t.Fatalf("stale transfer error: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t)
	opts := CachedVolatile()
	p := r.path(t, opts, 2)
	if p.Options() != opts || p.FbufPages() != 2 {
		t.Fatalf("path accessors: %+v %d", p.Options(), p.FbufPages())
	}
	f, _ := p.Alloc()
	if !f.Volatile() {
		t.Fatal("CachedVolatile fbuf not volatile")
	}
	gen := f.Generation()
	r.mgr.Free(f, r.src)
	f2, _ := p.Alloc()
	if f2 != f || f2.Generation() != gen+1 {
		t.Fatalf("generation %d after recycle (was %d)", f2.Generation(), gen)
	}
	if got := StateLive.String(); got != "live" {
		t.Fatalf("state string %q", got)
	}
	if got := StateDrainingNotice.String(); got != "draining" {
		t.Fatalf("state string %q", got)
	}
	if got := State(99).String(); got == "" {
		t.Fatal("unknown state string empty")
	}
}

func TestDMAAccess(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, _ := p.Alloc()
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	before := r.clk.Now()
	if err := f.DMAWrite(100, data); err != nil {
		t.Fatal(err)
	}
	if r.clk.Now() != before {
		t.Fatal("DMA charged CPU time")
	}
	got := make([]byte, 6000)
	if err := f.DMARead(100, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d", i)
		}
	}
	// And the domain view agrees (same frames).
	cpu := make([]byte, 16)
	if err := f.Read(r.src, 100, cpu); err != nil {
		t.Fatal(err)
	}
	for i := range cpu {
		if cpu[i] != data[i] {
			t.Fatal("DMA and CPU views diverge")
		}
	}
	if err := f.DMAWrite(f.Size()-1, []byte{1, 2}); err == nil {
		t.Fatal("out-of-range DMA write accepted")
	}
	if err := f.DMARead(-1, cpu); err == nil {
		t.Fatal("negative DMA read accepted")
	}
	if fn := f.FrameAt(0); fn < 0 {
		t.Fatal("FrameAt populated page returned NoFrame")
	}
	if fn := f.FrameAt(99); fn >= 0 {
		t.Fatal("FrameAt out of range returned a frame")
	}
}

func TestDupRefAndFbufAt(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, _ := p.Alloc()
	if err := r.mgr.DupRef(f, r.src); err != nil {
		t.Fatal(err)
	}
	if f.Refs() != 2 {
		t.Fatalf("refs %d", f.Refs())
	}
	if err := r.mgr.DupRef(f, r.dst); err != ErrNotHolder {
		t.Fatalf("dupref by non-holder: %v", err)
	}
	if got := r.mgr.FbufAt(f.Base + 5000); got != f {
		t.Fatal("FbufAt missed")
	}
	if got := r.mgr.FbufAt(0x1000); got != nil {
		t.Fatal("FbufAt outside region")
	}
	r.mgr.Free(f, r.src)
	r.mgr.Free(f, r.src)
	if err := r.mgr.DupRef(f, r.src); err == nil {
		t.Fatal("dupref on free fbuf accepted")
	}
}

// --- Quota semantics: 0 = manager default, positive = explicit, negative
// = unlimited ---

func TestQuotaManagerDefault(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), DefaultChunkPages) // 1 fbuf per chunk
	if got := p.Quota(); got != DefaultPathQuota {
		t.Fatalf("fresh path Quota() = %d, want manager default %d", got, DefaultPathQuota)
	}
	// Lowering the manager default retroactively governs every path that
	// never called SetQuota.
	r.mgr.DefaultQuota = 2
	var bufs []*Fbuf
	for i := 0; i < 2; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d under default quota: %v", i, err)
		}
		bufs = append(bufs, f)
	}
	if _, err := p.Alloc(); err != ErrQuota {
		t.Fatalf("third chunk: want ErrQuota, got %v", err)
	}
	_ = bufs
	r.check(t)
}

func TestQuotaExplicitAndReset(t *testing.T) {
	r := newRig(t)
	p := r.path(t, CachedVolatile(), DefaultChunkPages)
	p.SetQuota(1)
	if got := p.Quota(); got != 1 {
		t.Fatalf("explicit Quota() = %d, want 1", got)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != ErrQuota {
		t.Fatalf("want ErrQuota at explicit limit, got %v", err)
	}
	// SetQuota(0) hands control back to the manager default (8): the
	// previously refused allocation now succeeds.
	p.SetQuota(0)
	if got := p.Quota(); got != DefaultPathQuota {
		t.Fatalf("reset Quota() = %d, want %d", got, DefaultPathQuota)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatalf("alloc after quota reset: %v", err)
	}
	r.check(t)
}

func TestQuotaUnlimited(t *testing.T) {
	r := newRig(t)
	r.mgr.DefaultQuota = 1
	p := r.path(t, CachedVolatile(), DefaultChunkPages)
	p.SetQuota(-1)
	if got := p.Quota(); got != 0 {
		t.Fatalf("unlimited Quota() = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatalf("unlimited alloc %d: %v", i, err)
		}
	}
	r.check(t)
}
