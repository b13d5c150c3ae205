package aggregate

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"testing"

	"fbufs/internal/core"
	"fbufs/internal/machine"
	"fbufs/internal/vm"
)

// refSegs re-describes bytes [lo, hi) of segs the direct way: each
// segment's overlap with the range, in order.
func refSegs(segs []Seg, lo, hi int) []Seg {
	var out []Seg
	pos := 0
	for _, s := range segs {
		if a, b := max(lo, pos), min(hi, pos+s.N); a < b {
			out = append(out, Seg{F: s.F, VA: s.VA + vm.VA(a-pos), N: b - a})
		}
		pos += s.N
	}
	return out
}

// refFbufs is the fbuf list of a message built over segs, written the
// direct way: the data fbufs once each in segment order, then, in
// integrated mode, the fbufs that hold the nodes of the DAG at root, by
// region VA, less the data ones. It also returns the number of data fbufs
// and the segments the DAG's leaves describe (segs in private mode).
func refFbufs(mgr *core.Manager, segs []Seg, integrated bool, root vm.VA) ([]*core.Fbuf, int, []Seg) {
	var list []*core.Fbuf
	for _, s := range segs {
		if s.F != nil && !slices.Contains(list, s.F) {
			list = append(list, s.F)
		}
	}
	ndata := len(list)
	if !integrated {
		return list, ndata, segs
	}
	var nodes []*core.Fbuf
	var leaves []Seg
	w := &rawWalker{mgr: mgr}
	var walk func(va vm.VA)
	walk = func(va vm.VA) {
		if f := mgr.FbufAt(va); !slices.Contains(nodes, f) {
			nodes = append(nodes, f)
		}
		enc, _ := w.readNode(va)
		a := vm.VA(binary.LittleEndian.Uint64(enc[8:]))
		switch enc[0] {
		case kindLeaf:
			leaves = append(leaves, Seg{F: mgr.FbufAt(a), VA: a, N: int(binary.LittleEndian.Uint32(enc[4:]))})
		case kindPair:
			walk(a)
			walk(vm.VA(binary.LittleEndian.Uint64(enc[16:])))
		}
	}
	walk(root)
	slices.SortFunc(nodes, func(x, y *core.Fbuf) int { return cmp.Compare(x.Base, y.Base) })
	for _, f := range nodes {
		if !slices.Contains(list[:ndata], f) {
			list = append(list, f)
		}
	}
	return list, ndata, leaves
}

// checkEdit runs Split(m, off), or ClipHead(m, off) when clip is set, and
// checks it against the direct reference: each result's Segs, DAG, Fbufs
// order, ndata and bytes, and every fbuf's reference-count change. An
// fbuf ends with one reference per result listing it, so its count moves
// by the listings less m's, and by the arena's reference when the arena
// rotated. It returns the results.
func checkEdit(t testing.TB, c *Ctx, m *Msg, off int, clip bool) []*Msg {
	t.Helper()
	// Copy m's lists: the edit consumes m and may reuse its arrays.
	segs, held := slices.Clone(m.segs), slices.Clone(m.fbufs)
	data, err := m.ReadAll(c.Dom)
	if err != nil {
		t.Fatal(err)
	}
	arena := c.cur
	before := map[*core.Fbuf]int{}
	for _, f := range append(held, arena) {
		if f != nil {
			before[f] = f.Refs()
		}
	}
	bounds := []int{0, off, len(data)}
	var outs []*Msg
	if clip {
		o, err := c.ClipHead(m, off)
		if err != nil {
			t.Fatalf("clip %d of %d: %v", off, len(data), err)
		}
		outs, bounds = []*Msg{o}, bounds[1:]
	} else {
		a, b, err := c.Split(m, off)
		if err != nil {
			t.Fatalf("split at %d of %d: %v", off, len(data), err)
		}
		outs = []*Msg{a, b}
	}
	if !m.consumed {
		t.Fatal("edit left its operand live")
	}
	delta := map[*core.Fbuf]int{}
	for _, f := range held {
		delta[f]--
	}
	if arena != c.cur {
		if arena != nil {
			delta[arena]--
		}
		delta[c.cur]++
	}
	for i, o := range outs {
		lo, hi := bounds[i], bounds[i+1]
		if want := refSegs(segs, lo, hi); !slices.Equal(o.Segs(), want) {
			t.Fatalf("cut at %d: result [%d,%d) Segs %v, want %v", off, lo, hi, o.Segs(), want)
		}
		list, ndata, leaves := refFbufs(c.Mgr, o.Segs(), c.integrated, o.RootVA())
		if !slices.Equal(leaves, o.Segs()) {
			t.Fatalf("cut at %d: result [%d,%d) DAG leaves %v, want %v", off, lo, hi, leaves, o.Segs())
		}
		if !slices.Equal(o.Fbufs(), list) || o.ndata != ndata {
			t.Fatalf("cut at %d: result [%d,%d) Fbufs %v ndata %d, want %v ndata %d",
				off, lo, hi, o.Fbufs(), o.ndata, list, ndata)
		}
		if o.Len() != hi-lo {
			t.Fatalf("cut at %d: result [%d,%d) Len %d", off, lo, hi, o.Len())
		}
		got, err := o.ReadAll(c.Dom)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[lo:hi]) {
			t.Fatalf("cut at %d: result [%d,%d) reads other bytes", off, lo, hi)
		}
		for _, f := range list {
			delta[f]++
		}
	}
	for f, d := range delta {
		if got := f.Refs() - before[f]; got != d {
			t.Fatalf("cut at %d: fbuf %#x refs moved by %d, want %d", off, uint64(f.Base), got, d)
		}
	}
	return outs
}

// pushed builds IP's shape at small scale: an 8-byte header pushed onto n
// bytes, so the message's segments are the header, then the data fbufs.
func pushed(t testing.TB, c *Ctx, n int) *Msg {
	t.Helper()
	m, err := c.NewData(pattern(n))
	if err != nil {
		t.Fatal(err)
	}
	if m, err = c.Push(m, pattern(8)); err != nil {
		t.Fatal(err)
	}
	return m
}

// absentView opens, in c's domain, a pair DAG whose left leaf is 1,000
// bytes of an fbuf and whose right leaf is 3,000 bytes at the region's
// last page, which no fbuf covers: the view's second segment has no fbuf.
// The view owns the allocator references of the two fbufs it is built in.
func absentView(t testing.TB, c *Ctx) *Msg {
	t.Helper()
	f, err := c.allocData()
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.allocData()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(c.Dom, 0, pattern(1000)); err != nil {
		t.Fatal(err)
	}
	dangling := core.RegionBase + vm.VA((c.Mgr.RegionPages()-1)*machine.PageSize)
	if c.Mgr.FbufAt(dangling) != nil {
		t.Fatal("the region's last page is an fbuf")
	}
	nodes := make([]byte, 3*nodeSize)
	encodePair(nodes, g.Base+nodeSize, g.Base+2*nodeSize, 4000)
	encodeLeaf(nodes[nodeSize:], f.Base, 1000)
	encodeLeaf(nodes[2*nodeSize:], dangling, 3000)
	if err := g.Write(c.Dom, 0, nodes); err != nil {
		t.Fatal(err)
	}
	v, err := Open(c.Mgr, c.Dom, g.Base)
	if err != nil {
		t.Fatal(err)
	}
	if segs := v.Segs(); len(segs) != 2 || segs[1].F != nil {
		t.Fatalf("opened %d segments, want a data leaf and an absent one", len(segs))
	}
	return v
}

// TestFragmentationMatchesReference checks Split and ClipHead against
// checkEdit's direct reference. The main case cuts 200 pieces off a
// header-pushed message of 48 fbufs, every tenth with ClipHead; in
// integrated mode the chains it writes cross node-arena rotations. Then
// it cuts chosen layouts inside a segment, on segment boundaries and at
// both ends, among them the layouts whose tail may not take over the
// message's lists: the X,Y,X layout of Join(m, Clone(m)), an Opened view,
// and a message with an absent-data segment.
func TestFragmentationMatchesReference(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		m := pushed(t, c, 48*c.DataFbufBytes())
		frag, rotations := m.Len()/201, 0
		for i := 0; i < 200; i++ {
			arena := c.cur
			outs := checkEdit(t, c, m, frag, i%10 == 9)
			if c.cur != arena {
				rotations++
			}
			m = outs[len(outs)-1]
			if len(outs) == 2 {
				if err := outs[0].Free(r.src); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Free(r.src); err != nil {
			t.Fatal(err)
		}
		if c.integrated && rotations < 10 {
			t.Errorf("the cut rotated the node arena %d times, want at least 10", rotations)
		}

		fb := c.DataFbufBytes()
		dp, err := r.mgr.NewPath("dst", core.CachedVolatile(), 2, r.dst, r.src)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := NewCtx(r.mgr, dp, c.integrated)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := NewCtx(r.mgr, c.data, true)
		if err != nil {
			t.Fatal(err)
		}
		var sent []*Msg // sender views of the Opened layouts
		for _, l := range []struct {
			name string
			// build returns the message and the Ctx of its domain.
			build func() (*Msg, *Ctx)
			// offs are the cuts tried, each on a fresh message;
			// keep[i] says whether the tail of offs[i] takes over
			// the message's lists.
			offs []int
			keep []bool
		}{
			{"pushed", func() (*Msg, *Ctx) { return pushed(t, c, 3*fb-100), c },
				[]int{8 + 100, 8, 8 + fb, 0, 8 + 3*fb - 100, 8 + 3*fb - 101},
				[]bool{true, true, true, true, true, true}},
			{"split-segment", func() (*Msg, *Ctx) {
				a, b, err := c.Split(pushed(t, c, 3*fb-100), 8+100)
				if err != nil {
					t.Fatal(err)
				}
				m, err := c.Join(a, b)
				if err != nil {
					t.Fatal(err)
				}
				return m, c
			}, []int{8 + 100, 8 + 50, 8 + 200}, []bool{true, true, true}},
			{"x-y-x", func() (*Msg, *Ctx) {
				m := pushed(t, c, 3*fb-100)
				cl, err := m.Clone(r.src)
				if err != nil {
					t.Fatal(err)
				}
				if m, err = c.Join(m, cl); err != nil {
					t.Fatal(err)
				}
				return m, c
			}, []int{8 + 100, 8, 8 + 3*fb - 100, 2*(8+3*fb-100) - 50},
				[]bool{false, false, false, true}},
			{"opened", func() (*Msg, *Ctx) {
				m := pushed(t, ci, 3*fb-100)
				if err := m.Transfer(r.src, r.dst); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, m)
				v, err := Open(r.mgr, r.dst, m.RootVA())
				if err != nil {
					t.Fatal(err)
				}
				return v, cd
			}, []int{8 + 100, 8, 0, 8 + 3*fb - 100}, []bool{false, false, false, false}},
			{"absent", func() (*Msg, *Ctx) {
				m, err := c.Join(absentView(t, c), pushed(t, c, 100))
				if err != nil {
					t.Fatal(err)
				}
				return m, c
			}, []int{500, 1000, 4000 + 50, 0, 4108}, []bool{false, false, false, false, false}},
		} {
			for i, off := range l.offs {
				for _, clip := range []bool{false, true} {
					m, mc := l.build()
					if _, ok := m.cut(off); ok != l.keep[i] {
						t.Fatalf("%s: cut at %d of %d: keep %v, want %v", l.name, off, m.Len(), ok, l.keep[i])
					}
					for _, o := range checkEdit(t, mc, m, off, clip) {
						if err := o.Free(mc.Dom); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		for _, m := range sent {
			if err := m.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range []*Ctx{c, cd, ci} {
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSplitAllocsFlat guards Split's cost against the size of the
// remainder, as TestReassemblyAllocsFlat guards Join's: per Split,
// cutting a header-pushed message of 64 four-page fbufs into its 64
// fbuf-sized pieces allocates no more than cutting one of 16 one-page
// fbufs into 16. A Split that copies the remainder's lists allocates more
// per Split as the remainder holds more segments: almost one allocation
// more per Split at 64 fbufs than at 16.
func TestSplitAllocsFlat(t *testing.T) {
	perSplit := func(n, pages int) float64 {
		r := newRig(t)
		skipUnderSanitizer(t, r)
		c := r.ctx(t, true, pages)
		frag := c.DataFbufBytes()
		cut := func() {
			m := pushed(t, c, n*frag)
			for i := 0; i < n; i++ {
				head, rest, err := c.Split(m, frag)
				if err != nil {
					t.Fatal(err)
				}
				if err := head.Free(r.src); err != nil {
					t.Fatal(err)
				}
				m = rest
			}
			if err := m.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		cut()
		withSplits := testing.AllocsPerRun(10, cut)
		buildOnly := testing.AllocsPerRun(10, func() {
			if err := pushed(t, c, n*frag).Free(r.src); err != nil {
				t.Fatal(err)
			}
		})
		return (withSplits - buildOnly) / float64(n)
	}
	small, large := perSplit(16, 1), perSplit(64, 4)
	t.Logf("allocs per Split: %.2f cutting 16 one-page fbufs, %.2f cutting 64 four-page fbufs", small, large)
	// AllocsPerRun counts whole allocations per run, and the slabs refill
	// at other points of the two cuts, so they may differ by one
	// allocation in a run of the smaller cut.
	if large > small+1.0/16 {
		t.Errorf("allocs per Split grow with the remainder: %.2f at 64 fbufs > %.2f at 16", large, small)
	}
}

// BenchmarkFragment times IP's fragmentation of one bulk datagram and its
// reassembly: an 8-byte header pushed onto 1 MB held in 16 integrated
// 64 KB fbufs is cut by 64 Splits into 16 KB fragments and an 8-byte
// rest, which 64 Joins put back together before the whole is freed.
// Building the datagram is not timed.
func BenchmarkFragment(b *testing.B) {
	r := newRig(b)
	c := r.ctx(b, true, 16)
	var frags [65]*Msg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := c.NewTouched(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if m, err = c.Push(m, pattern(8)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := range frags[:64] {
			if frags[j], m, err = c.Split(m, 16<<10); err != nil {
				b.Fatal(err)
			}
		}
		frags[64] = m
		if err := reassemble(b, c, frags[:]).Free(r.src); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzFragment decodes its input into Split, ClipHead, Join and Clone
// calls on a pool of messages of mixed layouts and checks every Split and
// ClipHead against checkEdit's reference. The pool starts with a
// header-pushed message of three fbufs, a one-fbuf message and an Opened
// view with an absent-data segment; Joins of a message and its Clone make
// X,Y,X layouts, and Joins with the view make built messages with absent
// data. The first byte picks the storage mode. Each op is four bytes: the
// op, the message, and a 16-bit offset, which a set top bit of the op
// snaps to a segment boundary.
func FuzzFragment(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0x10, 0x08, 1, 0, 0, 8})
	f.Add([]byte{1, 3, 0, 0, 0, 2, 0, 3, 0, 0, 0, 0x20, 0, 0x81, 0, 0, 3})
	f.Add([]byte{0, 2, 2, 1, 0, 0x80, 2, 0, 2, 1, 2, 0, 100, 2, 0, 1, 0})
	f.Add([]byte{1, 2, 0, 2, 0, 0x80, 0, 0, 1, 0x81, 0, 0, 2, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		r := newFuzzRig()
		p, err := r.mgr.NewPath("fuzz", core.CachedVolatile(), 1, r.src, r.dst)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCtx(r.mgr, p, in[0]&1 == 1)
		if err != nil {
			t.Fatal(err)
		}
		one, err := c.NewData(pattern(700))
		if err != nil {
			t.Fatal(err)
		}
		pool := []*Msg{pushed(t, c, 3*c.DataFbufBytes()-100), one, absentView(t, c)}
		for in, ops := in[1:], 0; len(in) >= 4 && ops < 64; in, ops = in[4:], ops+1 {
			i := int(in[1]) % len(pool)
			x := pool[i]
			off := int(binary.BigEndian.Uint16(in[2:])) % (x.Len() + 1)
			if in[0]&0x80 != 0 {
				off = 0
				for _, s := range x.segs[:int(in[2])%(len(x.segs)+1)] {
					off += s.N
				}
			}
			switch in[0] & 3 {
			case 0, 1:
				outs := checkEdit(t, c, x, off, in[0]&3 == 1)
				pool[i] = outs[len(outs)-1]
				if len(outs) == 2 {
					if len(pool) < 8 {
						pool = append(pool, outs[0])
					} else if err := outs[0].Free(r.src); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				j := int(in[3]) % len(pool)
				if j == i {
					continue
				}
				y := pool[j]
				want := make([]byte, x.Len()+y.Len())
				if err := x.Read(r.src, 0, want[:x.Len()]); err != nil {
					t.Fatal(err)
				}
				if err := y.Read(r.src, 0, want[x.Len():]); err != nil {
					t.Fatal(err)
				}
				m, err := c.Join(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := m.ReadAll(r.src); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("join reads other bytes (%v)", err)
				}
				pool[i] = m
				pool = slices.Delete(pool, j, j+1)
			case 3:
				if len(pool) < 8 {
					cl, err := x.Clone(r.src)
					if err != nil {
						t.Fatal(err)
					}
					pool = append(pool, cl)
				}
			}
		}
		for _, m := range pool {
			if err := m.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
