package aggregate

import (
	"slices"
	"testing"

	"fbufs/internal/core"
)

// fragments builds n single-fbuf integrated messages of 1 KB each in c, as
// IP reassembly receives them: every fragment's leaf node shares c's node
// arena with the pair nodes the joins write.
func fragments(tb testing.TB, c *Ctx, n int) []*Msg {
	tb.Helper()
	frags := make([]*Msg, n)
	for i := range frags {
		m, err := c.NewData(pattern(1024))
		if err != nil {
			tb.Fatal(err)
		}
		frags[i] = m
	}
	return frags
}

// reassemble left-folds frags with Join, the IP.joinInOrder shape.
func reassemble(tb testing.TB, c *Ctx, frags []*Msg) *Msg {
	tb.Helper()
	whole := frags[0]
	for _, f := range frags[1:] {
		var err error
		if whole, err = c.Join(whole, f); err != nil {
			tb.Fatal(err)
		}
	}
	return whole
}

// joinReference is Join's reference accounting written the direct way: the
// result lists its data fbufs once each in segment order, then each
// operand's other fbufs and the new pair node's fbuf, skipping repeats; an
// fbuf ends with one reference per listing, so its reference count moves by
// listed - held-by-a - held-by-b.
func joinReference(a, b *Msg, node *core.Fbuf) ([]*core.Fbuf, map[*core.Fbuf]int) {
	var list []*core.Fbuf
	add := func(f *core.Fbuf) {
		if f != nil && !slices.Contains(list, f) {
			list = append(list, f)
		}
	}
	for _, m := range []*Msg{a, b} {
		for _, s := range m.s.segs {
			add(s.F)
		}
	}
	for _, m := range []*Msg{a, b} {
		for _, f := range m.s.fbufs {
			add(f)
		}
	}
	add(node)
	delta := map[*core.Fbuf]int{}
	for _, f := range list {
		delta[f]++
	}
	for _, m := range []*Msg{a, b} {
		for _, f := range m.s.fbufs {
			delta[f]--
		}
	}
	return list, delta
}

// TestReassemblyMatchesReference checks every Join of a 200-fragment
// reassembly against joinReference: the result's Fbufs order and each
// fbuf's reference-count change. The fold crosses node-arena rotations.
func TestReassemblyMatchesReference(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 1)
	frags := fragments(t, c, 200)
	whole := frags[0]
	for i, f := range frags[1:] {
		// Copy the operands: Join consumes them and reuses a's arrays.
		a := &Msg{s: &slot{segs: slices.Clone(whole.s.segs), fbufs: slices.Clone(whole.s.fbufs)}}
		b := &Msg{s: &slot{segs: slices.Clone(f.s.segs), fbufs: slices.Clone(f.s.fbufs)}}
		arena := c.cur
		before := map[*core.Fbuf]int{arena: arena.Refs()}
		for _, x := range append(slices.Clone(a.s.fbufs), b.s.fbufs...) {
			before[x] = x.Refs()
		}
		m, err := c.Join(whole, f)
		if err != nil {
			t.Fatal(err)
		}
		list, delta := joinReference(a, b, r.mgr.FbufAt(m.RootVA()))
		if c.cur != arena {
			// The arena filled: its own reference moved to a fresh node
			// fbuf, which the new pair node went into.
			delta[arena]--
			delta[c.cur]++
		}
		if !slices.Equal(m.Fbufs(), list) {
			t.Fatalf("join %d: Fbufs %v, want %v", i+1, m.Fbufs(), list)
		}
		for x, d := range delta {
			if got := x.Refs() - before[x]; got != d {
				t.Fatalf("join %d: fbuf %#x refs moved by %d, want %d", i+1, uint64(x.Base), got, d)
			}
		}
		whole = m
	}
	got, err := whole.ReadAll(r.src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if !slices.Equal(got[i*1024:(i+1)*1024], pattern(1024)) {
			t.Fatalf("fragment %d corrupted", i)
		}
	}
	if err := whole.Free(r.src); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReassemblyAllocsFlat guards Join's cost against the size of its left
// operand: per Join, reassembling 128 fragments allocates no more than
// reassembling 16. A Join that rescans or copies the growing message's
// fbuf set allocates more per Join as the message grows. Every message
// takes a handle, and a Ctx cuts handles from slabs of 256, one
// allocation per 256 messages at any size; the Ctx starts with a slab
// that lasts the whole measurement, so AllocsPerRun's whole counts per
// run do not set that constant against the joins of one size only.
func TestReassemblyAllocsFlat(t *testing.T) {
	perJoin := func(n int) float64 {
		r := newRig(t)
		c := r.ctx(t, true, 1)
		c.handles = make([]Msg, 22*(2*n-1))
		withJoins := testing.AllocsPerRun(10, func() {
			if err := reassemble(t, c, fragments(t, c, n)).Free(r.src); err != nil {
				t.Fatal(err)
			}
		})
		buildOnly := testing.AllocsPerRun(10, func() {
			for _, m := range fragments(t, c, n) {
				if err := m.Free(r.src); err != nil {
					t.Fatal(err)
				}
			}
		})
		return (withJoins - buildOnly) / float64(n-1)
	}
	small, large := perJoin(16), perJoin(128)
	t.Logf("allocs per Join: %.2f at 16 fragments, %.2f at 128", small, large)
	if large > small {
		t.Errorf("allocs per Join grow with the message: %.2f at 128 fragments > %.2f at 16", large, small)
	}
}

// TestReassemble64Allocs gates BenchmarkReassemble64's fold: the 63 Joins
// of a 64-fragment reassembly allocate nothing (what building and freeing
// the fragments costs is measured apart and subtracted). The result takes
// over the first fragment's slot, whose lists keep the capacity the last
// fold grew them to, and every other fragment's slot goes back to the
// Ctx. Under fbsan, which drops a pooled slot's lists and re-walks every
// built DAG, the fold allocates at most 16 times.
func TestReassemble64Allocs(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 1)
	fold := func(frags []*Msg) {
		if err := reassemble(t, c, frags).Free(r.src); err != nil {
			t.Fatal(err)
		}
	}
	fold(fragments(t, c, 64))
	withJoins := testing.AllocsPerRun(20, func() { fold(fragments(t, c, 64)) })
	buildOnly := testing.AllocsPerRun(20, func() {
		for _, m := range fragments(t, c, 64) {
			if err := m.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
	})
	limit := 0.0
	if r.mgr.SanitizerEnabled() {
		limit = 16
	}
	if n := withJoins - buildOnly; n > limit {
		t.Errorf("64-fragment fold: %v allocs, want <= %v", n, limit)
	}
}

// BenchmarkReassemble64 times the IP reassembly of one 64-fragment
// datagram: 63 left-folded Joins of single-fbuf integrated messages, then
// the Free of the whole. Building the fragments is not timed.
func BenchmarkReassemble64(b *testing.B) {
	r := newRig(b)
	c := r.ctx(b, true, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		frags := fragments(b, c, 64)
		b.StartTimer()
		if err := reassemble(b, c, frags).Free(r.src); err != nil {
			b.Fatal(err)
		}
	}
}
