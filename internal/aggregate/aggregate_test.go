package aggregate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

type rig struct {
	clk *simtime.Clock
	sys *vm.System
	reg *domain.Registry
	mgr *core.Manager
	src *domain.Domain
	dst *domain.Domain
}

func newRig(t testing.TB) *rig {
	t.Helper()
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 8192, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	mgr.EmptyLeafInit = EmptyLeafImage
	r := &rig{clk: clk, sys: sys, reg: reg, mgr: mgr}
	r.src = reg.New("src")
	r.dst = reg.New("dst")
	mgr.AttachDomain(r.src)
	mgr.AttachDomain(r.dst)
	return r
}

func (r *rig) ctx(t testing.TB, integrated bool, fbufPages int) *Ctx {
	t.Helper()
	p, err := r.mgr.NewPath("t", core.CachedVolatile(), fbufPages, r.src, r.dst)
	if err != nil {
		t.Fatal(err)
	}
	p.SetQuota(64)
	c, err := NewCtx(r.mgr, p, integrated)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func bothModes(t *testing.T, fn func(t *testing.T, r *rig, c *Ctx)) {
	for _, mode := range []struct {
		name       string
		integrated bool
	}{{"private", false}, {"integrated", true}} {
		t.Run(mode.name, func(t *testing.T) {
			r := newRig(t)
			fn(t, r, r.ctx(t, mode.integrated, 2))
		})
	}
}

func TestNewDataRoundTrip(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		for _, n := range []int{0, 1, 100, 8192, 8192*3 + 17} {
			data := pattern(n)
			m, err := c.NewData(data)
			if err != nil {
				t.Fatal(err)
			}
			if m.Len() != n {
				t.Fatalf("len %d, want %d", m.Len(), n)
			}
			got, err := m.ReadAll(r.src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("n=%d content mismatch", n)
			}
			if err := m.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestJoinSplitClip(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		a, _ := c.NewData(pattern(5000))
		b, _ := c.NewData([]byte("tail-data"))
		joined, err := c.Join(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := append(pattern(5000), []byte("tail-data")...)
		got, _ := joined.ReadAll(r.src)
		if !bytes.Equal(got, want) {
			t.Fatal("join content mismatch")
		}
		// Consumed operands reject further use.
		if _, err := a.ReadAll(r.src); !errors.Is(err, ErrConsumed) {
			t.Fatalf("consumed read: %v", err)
		}

		left, right, err := c.Split(joined, 4097)
		if err != nil {
			t.Fatal(err)
		}
		gl, _ := left.ReadAll(r.src)
		gr, _ := right.ReadAll(r.src)
		if !bytes.Equal(gl, want[:4097]) || !bytes.Equal(gr, want[4097:]) {
			t.Fatal("split content mismatch")
		}

		clipped, err := c.ClipHead(right, 10)
		if err != nil {
			t.Fatal(err)
		}
		gc, _ := clipped.ReadAll(r.src)
		if !bytes.Equal(gc, want[4107:]) {
			t.Fatal("cliphead mismatch")
		}
		clipped, err = c.ClipTail(clipped, 9)
		if err != nil {
			t.Fatal(err)
		}
		gc, _ = clipped.ReadAll(r.src)
		if !bytes.Equal(gc, want[4107:len(want)-9]) {
			t.Fatal("cliptail mismatch")
		}

		left.Free(r.src)
		clipped.Free(r.src)
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJoinSelfRefused: Join(m, m) would consume m twice, so it fails with
// ErrConsumed before touching m. Every fbuf keeps its references, the
// clock and the trace do not move, and m still reads and frees cleanly.
func TestJoinSelfRefused(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		o := obs.New(1 << 8)
		o.SetNow(r.clk.Now)
		r.sys.Obs = o
		m, err := c.NewData(pattern(100))
		if err != nil {
			t.Fatal(err)
		}
		// A copy: m's list is its slot's, which fbsan poisons once m is
		// freed.
		fbufs := slices.Clone(m.Fbufs())
		refs := make([]int, len(fbufs))
		for i, f := range fbufs {
			refs[i] = f.Refs()
		}
		now, events := r.clk.Now(), o.Tracer.Total()
		if j, err := c.Join(m, m); j != nil || !errors.Is(err, ErrConsumed) {
			t.Fatalf("Join(m, m) = %v, %v; want ErrConsumed", j, err)
		}
		for i, f := range fbufs {
			if f.Refs() != refs[i] {
				t.Errorf("fbuf %d: %d references after the refused join, want %d", i, f.Refs(), refs[i])
			}
		}
		if r.clk.Now() != now || o.Tracer.Total() != events {
			t.Errorf("refused join moved the clock %v and emitted %d events", r.clk.Now()-now, o.Tracer.Total()-events)
		}
		if got, err := m.ReadAll(r.src); err != nil || !bytes.Equal(got, pattern(100)) {
			t.Fatalf("m after the refused join: %v", err)
		}
		if err := m.Free(r.src); err != nil {
			t.Fatal(err)
		}
		if f := fbufs[0]; f.Refs() != 0 {
			t.Errorf("data fbuf holds %d references after Free", f.Refs())
		}
	})
}

func TestPushPopHeader(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		body, _ := c.NewData(pattern(3000))
		hdr := []byte{0x45, 0x00, 0x0B, 0xB8}
		m, err := c.Push(body, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 3004 {
			t.Fatalf("len %d", m.Len())
		}
		got, rest, err := c.Pop(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, hdr) {
			t.Fatalf("popped header %x", got)
		}
		all, _ := rest.ReadAll(r.src)
		if !bytes.Equal(all, pattern(3000)) {
			t.Fatal("body corrupted by header ops")
		}
		rest.Free(r.src)
	})
}

func TestSplitSharesDataWithoutCopying(t *testing.T) {
	// Fragmentation must not copy: both halves reference the original
	// fbuf ("each fragment can be represented by an offset/length into
	// the original buffer").
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		m, _ := c.NewData(pattern(8000))
		first := m.Segs()[0].F
		last := m.Segs()[len(m.Segs())-1].F
		a, b, err := c.Split(m, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if a.Segs()[0].F != first {
			t.Fatal("left half does not reference original fbuf")
		}
		if b.Segs()[len(b.Segs())-1].F != last {
			t.Fatal("right half does not reference original fbuf")
		}
		a.Free(r.src)
		b.Free(r.src)
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTransferAndReceive(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		data := pattern(9000)
		m, _ := c.NewData(data)
		if err := m.Transfer(r.src, r.dst); err != nil {
			t.Fatal(err)
		}
		var rm *Msg
		if c.Integrated() {
			// The receiver reconstructs from the root reference alone.
			var err error
			rm, err = Open(r.mgr, r.dst, m.RootVA())
			if err != nil {
				t.Fatal(err)
			}
			if m.NumFbufs() != 1 {
				t.Fatalf("integrated descriptor count %d", m.NumFbufs())
			}
		} else {
			rm = m // simulator plumbing: same view, receiver-side refs exist
			if m.NumFbufs() < 2 {
				t.Fatalf("private descriptor count %d", m.NumFbufs())
			}
		}
		got, err := rm.ReadAll(r.dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("receiver content mismatch")
		}
		if err := rm.Free(r.dst); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(r.src); err != nil && !errors.Is(err, ErrConsumed) {
			t.Fatal(err)
		}
	})
}

func TestOpenLengthMatches(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 2)
	m, _ := c.NewData(pattern(12345))
	m.Transfer(r.src, r.dst)
	rm, err := Open(r.mgr, r.dst, m.RootVA())
	if err != nil {
		t.Fatal(err)
	}
	if rm.Len() != 12345 {
		t.Fatalf("opened len %d", rm.Len())
	}
	if len(rm.Fbufs()) != len(m.Fbufs()) {
		t.Fatalf("opened %d fbufs, sender had %d", len(rm.Fbufs()), len(m.Fbufs()))
	}
}

func TestCloneForRetransmission(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		m, _ := c.NewData(pattern(5000))
		cl, err := m.Clone(r.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(r.src); err != nil {
			t.Fatal(err)
		}
		// Clone still readable after original freed.
		got, err := cl.ReadAll(r.src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(5000)) {
			t.Fatal("clone corrupted")
		}
		cl.Free(r.src)
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNoLeaksAfterOpChains(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		for i := 0; i < 20; i++ {
			a, _ := c.NewData(pattern(6000))
			b, _ := c.NewData(pattern(100))
			j, err := c.Join(b, a)
			if err != nil {
				t.Fatal(err)
			}
			l, rr, err := c.Split(j, 3000)
			if err != nil {
				t.Fatal(err)
			}
			l.Free(r.src)
			x, err := c.ClipHead(rr, 50)
			if err != nil {
				t.Fatal(err)
			}
			x.Free(r.src)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Everything cached should be back on free lists: no fbuf should
		// hold a live reference.
		// (Frames may stay attached — that is the cache working.)
	})
}

// TestModelConformance drives random operation sequences against a plain
// []byte reference model, in both storage modes.
func TestModelConformance(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		rng := rand.New(rand.NewSource(42))
		type pair struct {
			m     *Msg
			model []byte
		}
		var live []pair
		check := func(p pair) {
			got, err := p.m.ReadAll(r.src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p.model) {
				t.Fatalf("model divergence: %d bytes vs %d", len(got), len(p.model))
			}
		}
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(5); {
			case op == 0 || len(live) == 0:
				n := rng.Intn(10000)
				data := pattern(n)
				m, err := c.NewData(data)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, pair{m, data})
			case op == 1 && len(live) >= 2:
				i := rng.Intn(len(live) - 1)
				a, b := live[i], live[i+1]
				j, err := c.Join(a.m, b.m)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+2:]...)
				live = append(live, pair{j, append(append([]byte(nil), a.model...), b.model...)})
			case op == 2:
				i := rng.Intn(len(live))
				p := live[i]
				if p.m.Len() == 0 {
					continue
				}
				at := rng.Intn(p.m.Len() + 1)
				a, b, err := c.Split(p.m, at)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				live = append(live, pair{a, p.model[:at]}, pair{b, p.model[at:]})
			case op == 3:
				i := rng.Intn(len(live))
				p := live[i]
				n := 0
				if p.m.Len() > 0 {
					n = rng.Intn(p.m.Len())
				}
				m2, err := c.ClipHead(p.m, n)
				if err != nil {
					t.Fatal(err)
				}
				live[i] = pair{m2, p.model[n:]}
			case op == 4:
				i := rng.Intn(len(live))
				check(live[i])
				if err := live[i].m.Free(r.src); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if step%20 == 19 {
				if err := r.mgr.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		for _, p := range live {
			check(p)
			p.m.Free(r.src)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// --- Adversarial DAG tests (section 3.2.4 safeguards) ---

// adversarialRig returns a rig plus a raw fbuf the untrusted src domain can
// scribble DAG nodes into, already transferred to dst.
func adversarialSetup(t *testing.T) (*rig, *Ctx, *core.Fbuf) {
	r := newRig(t)
	c := r.ctx(t, true, 2)
	m, err := c.NewData(pattern(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Transfer(r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	// The data fbuf is writable by src (volatile): the attacker forges
	// node records inside it.
	return r, c, m.Fbufs()[0]
}

func writeNodeRaw(t *testing.T, r *rig, f *core.Fbuf, off int, enc []byte) vm.VA {
	t.Helper()
	if err := f.Write(r.src, off, enc); err != nil {
		t.Fatal(err)
	}
	return f.Base + vm.VA(off)
}

func TestAdversarialCycleDetected(t *testing.T) {
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	// pair at offset 512 pointing to itself on the left.
	self := f.Base + vm.VA(512)
	encodePair(enc[:], self, self, 1)
	va := writeNodeRaw(t, r, f, 512, enc[:])
	if _, err := Open(r.mgr, r.dst, va); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestAdversarialMutualCycle(t *testing.T) {
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	n1 := f.Base + vm.VA(512)
	n2 := f.Base + vm.VA(544)
	encodePair(enc[:], n2, n2, 1)
	writeNodeRaw(t, r, f, 512, enc[:])
	encodePair(enc[:], n1, n1, 1)
	writeNodeRaw(t, r, f, 544, enc[:])
	if _, err := Open(r.mgr, r.dst, n1); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestAdversarialOutOfRegionPointer(t *testing.T) {
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	encodePair(enc[:], vm.VA(0x1000), vm.VA(0x2000), 1) // private addresses
	va := writeNodeRaw(t, r, f, 512, enc[:])
	if _, err := Open(r.mgr, r.dst, va); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("want ErrBadPointer, got %v", err)
	}
	// Root itself out of region.
	if _, err := Open(r.mgr, r.dst, vm.VA(0x1000)); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("root check: %v", err)
	}
}

func TestAdversarialLeafEscape(t *testing.T) {
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	// Leaf whose data range runs past the end of the region.
	end := core.RegionBase + vm.VA(r.mgr.RegionPages()*machine.PageSize)
	encodeLeaf(enc[:], end-16, 64)
	va := writeNodeRaw(t, r, f, 512, enc[:])
	if _, err := Open(r.mgr, r.dst, va); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("want ErrBadPointer, got %v", err)
	}
}

func TestAdversarialUnalignedNode(t *testing.T) {
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	encodeLeaf(enc[:], f.Base, 4)
	va := writeNodeRaw(t, r, f, 515, enc[:]) // misaligned
	if _, err := Open(r.mgr, r.dst, va); !errors.Is(err, ErrBadNode) {
		t.Fatalf("want ErrBadNode, got %v", err)
	}
}

func TestAdversarialBadKind(t *testing.T) {
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	enc[0] = 77
	va := writeNodeRaw(t, r, f, 512, enc[:])
	if _, err := Open(r.mgr, r.dst, va); !errors.Is(err, ErrBadNode) {
		t.Fatalf("want ErrBadNode, got %v", err)
	}
}

func TestAdversarialExponentialDAGBounded(t *testing.T) {
	// A chain of pairs each referencing the next node twice makes 2^k
	// traversal paths; the node budget must stop it.
	r, _, f := adversarialSetup(t)
	var enc [nodeSize]byte
	// 40 nodes, each pair(next, next); last is a tiny leaf.
	base := 512
	for i := 0; i < 40; i++ {
		next := f.Base + vm.VA(base+(i+1)*nodeSize)
		encodePair(enc[:], next, next, 1)
		writeNodeRaw(t, r, f, base+i*nodeSize, enc[:])
	}
	encodeLeaf(enc[:], f.Base, 1)
	writeNodeRaw(t, r, f, base+40*nodeSize, enc[:])
	_, err := Open(r.mgr, r.dst, f.Base+vm.VA(base))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestDanglingReferenceReadsAsAbsence(t *testing.T) {
	// A leaf pointing into fbuf-region space the receiver has no rights
	// to completes as zeros (the empty-leaf page), not a crash.
	r, _, f := adversarialSetup(t)

	// A second path src-only: dst has no rights to its fbufs.
	p2, err := r.mgr.NewPath("private", core.CachedVolatile(), 1, r.src)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := p2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := secret.Write(r.src, 0, []byte("topsecret")); err != nil {
		t.Fatal(err)
	}

	var enc [nodeSize]byte
	encodeLeaf(enc[:], secret.Base, 9)
	va := writeNodeRaw(t, r, f, 512, enc[:])
	m, err := Open(r.mgr, r.dst, va)
	if err != nil {
		t.Fatalf("volatile open should succeed: %v", err)
	}
	got, err := m.ReadAll(r.dst)
	if err != nil {
		t.Fatalf("volatile read should complete: %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatalf("secret data leaked: %q", got)
		}
	}
}

func TestZeroPageDecodesAsEmptyLeaf(t *testing.T) {
	var enc [nodeSize]byte
	if enc[0] != kindEmpty {
		t.Fatal("zero bytes must decode as the empty node kind")
	}
	page := make([]byte, machine.PageSize)
	EmptyLeafImage(page)
	if page[0] != kindEmpty || binary.LittleEndian.Uint32(page[4:]) != 0 {
		t.Fatal("EmptyLeafImage is not an empty node")
	}
}

func TestWrapFbuf(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 2)
	p, _ := r.mgr.NewPath("drv", core.CachedVolatile(), 2, r.src, r.dst)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f.Write(r.src, 0, pattern(5000))
	m, err := c.WrapFbuf(f, 100, 2000)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadAll(r.src)
	if !bytes.Equal(got, pattern(5000)[100:2100]) {
		t.Fatal("wrap content mismatch")
	}
	if _, err := c.WrapFbuf(f, 0, f.Size()+1); err == nil {
		t.Fatal("oversized wrap accepted")
	}
	m.Free(r.src)
}

func TestUncachedCtx(t *testing.T) {
	r := newRig(t)
	opts := core.Uncached()
	opts.NoClear = true
	c := NewUncachedCtx(r.mgr, r.src, opts, 2, true)
	m, err := c.NewData(pattern(10000))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Transfer(r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	rm, err := Open(r.mgr, r.dst, m.RootVA())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rm.ReadAll(r.dst)
	if !bytes.Equal(got, pattern(10000)) {
		t.Fatal("uncached content mismatch")
	}
	rm.Free(r.dst)
	m.Free(r.src)
	c.Close()
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.sys.Mem.Allocated() != 0 {
		t.Fatalf("%d frames leaked in uncached mode", r.sys.Mem.Allocated())
	}
}

func TestTouchReadsEveryPage(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, false, 4)
	m, _ := c.NewData(pattern(3 * 4096))
	start := r.clk.Now()
	if err := m.Touch(r.dst); err == nil {
		// dst has no refs yet; volatile mode maps the empty leaf, so
		// this may succeed with absence-of-data. Transfer and retouch.
		_ = start
	}
	m.Transfer(r.src, r.dst)
	if err := m.Touch(r.dst); err != nil {
		t.Fatal(err)
	}
	m.Free(r.dst)
	m.Free(r.src)
}

func TestReadRangeValidation(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, false, 2)
	m, _ := c.NewData(pattern(100))
	if err := m.Read(r.src, 90, make([]byte, 20)); !errors.Is(err, ErrRange) {
		t.Fatalf("oob read: %v", err)
	}
	if err := m.Read(r.src, -1, make([]byte, 2)); !errors.Is(err, ErrRange) {
		t.Fatalf("negative read: %v", err)
	}
}

func TestSplitRangeValidation(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, false, 2)
	m, _ := c.NewData(pattern(100))
	if _, _, err := c.Split(m, 101); !errors.Is(err, ErrRange) {
		t.Fatalf("oob split: %v", err)
	}
	if _, _, err := c.Split(m, -1); !errors.Is(err, ErrRange) {
		t.Fatalf("negative split: %v", err)
	}
	// m not consumed by failed splits.
	if _, err := m.ReadAll(r.src); err != nil {
		t.Fatal(err)
	}
}

func TestMsgSecure(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 2)
	m, _ := c.NewData(pattern(9000))
	if err := m.Transfer(r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	if err := m.Secure(r.dst); err != nil {
		t.Fatal(err)
	}
	// Every fbuf of the message is now immutable to the originator.
	for _, f := range m.Fbufs() {
		if !f.Secured() {
			t.Fatalf("fbuf %#x not secured", uint64(f.Base))
		}
	}
	// The originator can no longer scribble on the payload.
	if err := m.Fbufs()[0].Write(r.src, 0, []byte{1}); err == nil {
		t.Fatal("originator wrote after Secure")
	}
	rm, err := Open(r.mgr, r.dst, m.RootVA())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rm.ReadAll(r.dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(9000)) {
		t.Fatal("secured content mismatch")
	}
	if err := m.Free(r.src); err != nil {
		t.Fatal(err)
	}
	if err := m.Secure(r.dst); !errors.Is(err, ErrConsumed) {
		t.Fatalf("secure after free: %v", err)
	}
}

func TestViewForRequiresTransfer(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, false, 2)
	m, _ := c.NewData(pattern(100))
	if _, err := m.ViewFor(r.dst); err == nil {
		t.Fatal("view without transfer accepted")
	}
	m.Transfer(r.src, r.dst)
	v, err := m.ViewFor(r.dst)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 100 {
		t.Fatalf("view len %d", v.Len())
	}
	m.Free(r.src)
	if _, err := m.ViewFor(r.dst); !errors.Is(err, ErrConsumed) {
		t.Fatalf("view of consumed: %v", err)
	}
	v.Free(r.dst)
}

func TestCtxCloseReleasesArena(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 2)
	m, _ := c.NewData(pattern(100)) // forces a node fbuf into the arena
	if err := m.Free(r.src); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is harmless.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDataFbufBytes(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, false, 3)
	if got := c.DataFbufBytes(); got != 3*4096 {
		t.Fatalf("path ctx capacity %d", got)
	}
	opts := core.Uncached()
	opts.NoClear = true
	u := NewUncachedCtx(r.mgr, r.src, opts, 2, false)
	if got := u.DataFbufBytes(); got != 2*4096 {
		t.Fatalf("uncached ctx capacity %d", got)
	}
	if u.Integrated() {
		t.Fatal("uncached ctx claims integrated")
	}
}

func TestDeepJoinChainTraversal(t *testing.T) {
	// Hundreds of successive joins build a deeply right-leaning DAG; Open
	// must traverse it within the node budget and without corruption.
	r := newRig(t)
	c := r.ctx(t, true, 2)
	m, err := c.NewData(pattern(64))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	want = append(want, pattern(64)...)
	for i := 0; i < 500; i++ {
		piece, err := c.NewData([]byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		m, err = c.Join(m, piece)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, byte(i), byte(i>>8))
	}
	if err := m.Transfer(r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	rm, err := Open(r.mgr, r.dst, m.RootVA())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rm.ReadAll(r.dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("deep chain corrupted")
	}
	if err := rm.Free(r.dst); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(r.src); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleAfterSlotReuse frees a message, builds the next one on
// the same Ctx, which takes the freed slot over, and then uses the first
// message's handle in every way that can fail: each reports ErrConsumed,
// the accessors read zero values, and the message that owns the slot now
// keeps its bytes, fbufs and references.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		stale, err := c.NewData(pattern(100))
		if err != nil {
			t.Fatal(err)
		}
		s := stale.s
		if err := stale.Free(r.src); err != nil {
			t.Fatal(err)
		}
		live, err := c.NewData(pattern(300))
		if err != nil {
			t.Fatal(err)
		}
		if live.s != s {
			t.Fatal("the next message took another slot, not the freed one")
		}
		other, err := c.NewData(pattern(50))
		if err != nil {
			t.Fatal(err)
		}
		fbufs := slices.Clone(live.Fbufs())
		refs := make([]int, len(fbufs))
		for i, f := range fbufs {
			refs[i] = f.Refs()
		}

		buf := make([]byte, 8)
		_, _, popErr := c.Pop(stale, 8)
		_, _, splitErr := c.Split(stale, 0)
		uses := []struct {
			name string
			err  error
		}{
			{"Read", stale.Read(r.src, 0, buf)},
			{"Touch", stale.Touch(r.src)},
			{"Transfer", stale.Transfer(r.src, r.dst)},
			{"Secure", stale.Secure(r.dst)},
			{"Free", stale.Free(r.src)},
			{"Clone", second(stale.Clone(r.src))},
			{"ViewFor", second(stale.ViewFor(r.dst))},
			{"Join left", second(c.Join(stale, other))},
			{"Join right", second(c.Join(other, stale))},
			{"Split", splitErr},
			{"ClipHead", second(c.ClipHead(stale, 0))},
			{"ClipTail", second(c.ClipTail(stale, 0))},
			{"Pop", popErr},
		}
		for _, u := range uses {
			if !errors.Is(u.err, ErrConsumed) {
				t.Errorf("%s of a stale handle: %v, want ErrConsumed", u.name, u.err)
			}
		}
		if stale.Len() != 0 || stale.RootVA() != 0 || stale.Integrated() || stale.NumFbufs() != 0 ||
			stale.Segs() != nil || stale.Fbufs() != nil {
			t.Errorf("stale handle reads Len %d, RootVA %#x, Integrated %v, NumFbufs %d, %d Segs, %d Fbufs; want zero values",
				stale.Len(), uint64(stale.RootVA()), stale.Integrated(), stale.NumFbufs(), len(stale.Segs()), len(stale.Fbufs()))
		}

		if got, err := live.ReadAll(r.src); err != nil || !bytes.Equal(got, pattern(300)) {
			t.Errorf("the slot's new message reads other bytes (%v)", err)
		}
		if !slices.Equal(live.Fbufs(), fbufs) {
			t.Errorf("the slot's new message holds fbufs %v, want %v", live.Fbufs(), fbufs)
		}
		for i, f := range fbufs {
			if f.Refs() != refs[i] {
				t.Errorf("fbuf %#x has %d references, want %d", uint64(f.Base), f.Refs(), refs[i])
			}
		}
		// Push builds its header before Join refuses the stale operand,
		// and the header keeps its references, node fbuf included.
		if _, err := c.Push(stale, pattern(8)); !errors.Is(err, ErrConsumed) {
			t.Errorf("Push of a stale handle: %v, want ErrConsumed", err)
		}
	})
}

// second returns the error of a (result, error) pair.
func second[T any](_ T, err error) error { return err }

// TestPooledSlotPoisoned: with fbsan on, a slot going back to its Ctx has
// its list entries poisoned and its lists dropped, so a caller that kept a
// freed message's Segs and Fbufs sees the poison, not the entries of the
// next message, which takes the slot over. A built message holding the
// poison is reported.
func TestPooledSlotPoisoned(t *testing.T) {
	for _, integrated := range []bool{false, true} {
		r := newRig(t)
		r.mgr.EnableSanitizer()
		c := r.ctx(t, integrated, 1)
		m, err := c.NewData(pattern(5000))
		if err != nil {
			t.Fatal(err)
		}
		s, segs, fbufs := m.s, m.Segs(), m.Fbufs()
		if err := m.Free(r.src); err != nil {
			t.Fatal(err)
		}
		next, err := c.NewData(pattern(6000))
		if err != nil {
			t.Fatal(err)
		}
		if next.s != s {
			t.Fatalf("integrated=%v: the next message took another slot, not the freed one", integrated)
		}
		for i, sg := range segs {
			if sg != poisonSeg {
				t.Errorf("integrated=%v: kept seg %d reads %+v, want the poison", integrated, i, sg)
			}
		}
		for i, f := range fbufs {
			if f != nil {
				t.Errorf("integrated=%v: kept fbuf %d reads %#x, want nil", integrated, i, uint64(f.Base))
			}
		}
		if err := c.validateMsg(&slot{segs: segs}); err == nil || !strings.Contains(err.Error(), "poison") {
			t.Errorf("integrated=%v: validating poisoned segments: %v, want the poison reported", integrated, err)
		}
		if err := next.Free(r.src); err != nil {
			t.Fatal(err)
		}
	}
}
