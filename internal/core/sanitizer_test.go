package core

import (
	"strings"
	"testing"

	"fbufs/internal/vm"
)

// sanRig is a rig with the sanitizer enabled and violations captured
// instead of panicking.
type sanRig struct {
	*rig
	san        *Sanitizer
	violations []string
}

func newSanRig(t *testing.T) *sanRig {
	t.Helper()
	r := &sanRig{rig: newRig(t)}
	r.san = r.mgr.EnableSanitizer()
	r.san.OnViolation = func(msg string) { r.violations = append(r.violations, msg) }
	return r
}

func (r *sanRig) expectViolation(t *testing.T, substr string) {
	t.Helper()
	for _, v := range r.violations {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("no sanitizer violation containing %q; got %v", substr, r.violations)
}

func (r *sanRig) expectClean(t *testing.T) {
	t.Helper()
	if len(r.violations) != 0 {
		t.Fatalf("unexpected sanitizer violations: %v", r.violations)
	}
}

// TestSanitizerCatchesUseAfterFree is the deliberately-injected
// use-after-free the acceptance criteria require: a write lands on a
// free-listed fbuf's frame behind the VM layer's back, and the canary
// trips at reuse.
func TestSanitizerCatchesUseAfterFree(t *testing.T) {
	r := newSanRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	// The injected bug: a stale pointer (here: direct frame access,
	// standing in for a device or a domain with a leftover mapping)
	// scribbles on the freed buffer.
	r.sys.Mem.Write(f.FrameAt(0), 128, []byte("stale write"))
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	r.expectViolation(t, "use-after-free write")
}

// TestSanitizerReuseCleanAndTransparent: without a stray write the reuse
// verifies clean, and poison/restore leaves the recycled contents exactly
// as the paper's cached semantics promise (data survives free/realloc).
func TestSanitizerReuseCleanAndTransparent(t *testing.T) {
	r := newSanRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the free list")
	if err := f.Write(r.src, 64, payload); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	f2, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatal("LIFO free list did not return the same fbuf")
	}
	got := make([]byte, len(payload))
	if err := f2.Read(r.src, 64, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("contents after recycle = %q, want %q (sanitizer must restore)", got, payload)
	}
	r.expectClean(t)
	st := r.san.Stats()
	if st.PoisonedPages == 0 || st.VerifiedPages == 0 {
		t.Fatalf("sanitizer idle: %+v", st)
	}
}

// TestSanitizerDMAChecks: DMA to a free-listed fbuf and DMA writes to a
// secured fbuf are MMU-bypass bugs only the sanitizer can see.
func TestSanitizerDMAChecks(t *testing.T) {
	r := newSanRig(t)
	p := r.path(t, CachedVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	_ = f.DMAWrite(0, []byte{1})
	r.expectViolation(t, "DMA write to free fbuf")

	r2 := newSanRig(t)
	p2 := r2.path(t, CachedVolatile(), 1)
	f2, _ := p2.Alloc()
	if err := r2.mgr.Transfer(f2, r2.src, r2.dst); err != nil {
		t.Fatal(err)
	}
	if err := r2.mgr.Secure(f2, r2.dst); err != nil {
		t.Fatal(err)
	}
	_ = f2.DMAWrite(0, []byte{1})
	r2.expectViolation(t, "DMA write to secured fbuf")
}

// TestSanitizerShadowAudit: a writable PTE smuggled into a receiver's
// address space violates the write-permission invariant and fails
// CheckInvariants.
func TestSanitizerShadowAudit(t *testing.T) {
	r := newSanRig(t)
	p := r.path(t, CachedNonVolatile(), 1)
	f, _ := p.Alloc()
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	r.check(t) // clean before the injected leak
	// The injected bug: somebody maps the page writable in the receiver.
	r.dst.AS.Map(f.Base, f.FrameAt(0), vm.ReadWrite)
	err := r.mgr.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "shadow audit") {
		t.Fatalf("CheckInvariants = %v, want shadow audit failure", err)
	}
}

// TestSanitizerStatsAcrossOptLevels runs the paper's transfer loop under
// every optimization level with fbsan enabled and verifies the facility's
// own invariants (Stats.Check via CheckInvariants) still hold — the
// sanitizer must not perturb the accounting it guards.
func TestSanitizerStatsAcrossOptLevels(t *testing.T) {
	levels := []struct {
		name string
		opts Options
	}{
		{"Remap", UncachedNonVolatile()},
		{"Shared", Uncached()},
		{"Cached", CachedNonVolatile()},
		{"CachedVolatile", CachedVolatile()},
	}
	for _, lv := range levels {
		t.Run(lv.name, func(t *testing.T) {
			r := newSanRig(t)
			opts := lv.opts
			opts.Populate = true
			p := r.path(t, opts, 2)
			for i := 0; i < 5; i++ {
				r.oneHop(t, p)
				r.check(t)
			}
			if err := r.mgr.Snapshot().Check(); err != nil {
				t.Fatal(err)
			}
			r.expectClean(t)
			if got := r.san.Stats().ShadowAudits; got == 0 {
				t.Fatal("shadow audit never ran")
			}
		})
	}
}

// TestSanitizerReclaimNoFalsePositive: frames reclaimed from free-listed
// fbufs (contents legitimately discarded) must not read as
// use-after-free when the fbuf is reused and lazily refilled.
func TestSanitizerReclaimNoFalsePositive(t *testing.T) {
	r := newSanRig(t)
	p := r.path(t, CachedVolatile(), 2)
	f, _ := p.Alloc()
	if err := r.mgr.Free(f, r.src); err != nil {
		t.Fatal(err)
	}
	if n := r.mgr.ReclaimIdle(64); n == 0 {
		t.Fatal("nothing reclaimed")
	}
	f2, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.TouchWrite(r.src, 0xBEEF); err != nil { // lazy refill
		t.Fatal(err)
	}
	r.expectClean(t)
	r.check(t)
}

// TestSanitizerDisabledByDefault pins the zero-cost-when-off contract.
func TestSanitizerDisabledByDefault(t *testing.T) {
	if sanitizerDefault {
		t.Skip("fbsan forced on via FBSAN=1")
	}
	r := newRig(t)
	if r.mgr.SanitizerEnabled() {
		t.Fatal("sanitizer enabled without opt-in")
	}
	if r.mgr.Sanitizer() != nil {
		t.Fatal("Sanitizer() non-nil when disabled")
	}
}
