package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/vm"
)

// The holder-table differential: seeded sequences of Alloc, Transfer,
// DupRef, Free, Secure, reads, notice delivery, ClosePath and domain death
// over six domains (past the four inline lines), checked after every step
// against a plain map model of each fbuf's references and mappings. The
// model predicts when an fbuf recycles and when it is torn down; the check
// compares HeldBy, Refs, the state, FbufAt, CheckInvariants and, for every
// live domain, whether it still maps each fbuf (so a teardown that unmaps
// the wrong set of domains shows).

// modelFbuf is the model of one fbuf.
type modelFbuf struct {
	f      *Fbuf
	refs   map[domain.ID]int
	mapped map[domain.ID]bool
	state  State
}

func (mf *modelFbuf) total() int {
	n := 0
	for _, c := range mf.refs {
		n += c
	}
	return n
}

type holderModel struct {
	t       *testing.T
	r       *rig
	doms    []*domain.Domain
	paths   []*DataPath
	closed  map[*DataPath]bool
	fbufs   map[*Fbuf]*modelFbuf
	order   []*Fbuf // tracked fbufs in first-seen order, for a fixed walk
	notices map[noticeKey][]*Fbuf
	gone    []*Fbuf // torn down by the current step
}

func (h *holderModel) track(f *Fbuf) *modelFbuf {
	mf := h.fbufs[f]
	if mf == nil {
		mf = &modelFbuf{f: f, mapped: map[domain.ID]bool{f.Originator.ID: true}}
		h.fbufs[f] = mf
		h.order = append(h.order, f)
	}
	mf.refs = map[domain.ID]int{f.Originator.ID: 1}
	mf.state = StateLive
	return mf
}

// recycle models Manager.recycle.
func (h *holderModel) recycle(mf *modelFbuf) {
	f := mf.f
	clear(mf.refs)
	if f.Path != nil && f.Path.opts.Cached && !f.Originator.Dead() && !h.closed[f.Path] {
		mf.state = StateFree
		return
	}
	h.teardown(mf)
}

func (h *holderModel) teardown(mf *modelFbuf) {
	for id := range mf.mapped {
		if d := h.r.reg.Get(id); d != nil && !d.Dead() {
			delete(mf.mapped, id)
		}
	}
	delete(h.fbufs, mf.f)
	h.gone = append(h.gone, mf.f)
}

// free models Manager.Free.
func (h *holderModel) free(mf *modelFbuf, d *domain.Domain) {
	f := mf.f
	mf.refs[d.ID]--
	if mf.refs[d.ID] == 0 {
		delete(mf.refs, d.ID)
		if !f.opts.Cached && d != f.Originator && mf.mapped[d.ID] {
			delete(mf.mapped, d.ID)
		}
	}
	if len(mf.refs) > 0 {
		return
	}
	if d == f.Originator || f.Path == nil || f.Originator.Dead() || h.closed[f.Path] {
		h.recycle(mf)
		return
	}
	mf.state = StateDrainingNotice
	k := noticeKey{holder: d.ID, owner: f.Originator.ID}
	h.notices[k] = append(h.notices[k], f)
	if len(h.notices[k]) >= h.r.mgr.NoticeLimit {
		h.deliver(k)
	}
}

func (h *holderModel) deliver(k noticeKey) {
	for _, f := range h.notices[k] {
		h.recycle(h.fbufs[f])
	}
	delete(h.notices, k)
}

func (h *holderModel) closePath(p *DataPath) {
	if h.closed[p] {
		return
	}
	h.closed[p] = true
	for _, f := range h.order {
		if mf := h.fbufs[f]; mf != nil && f.Path == p && mf.state == StateFree {
			h.teardown(mf)
		}
	}
}

// die models Registry.Terminate and Manager.domainDied. The manager
// visits fbufs in chunk order; the model's end state does not depend on
// the order.
func (h *holderModel) die(d *domain.Domain) {
	for _, f := range h.order {
		mf := h.fbufs[f]
		if mf == nil {
			continue
		}
		if mf.state == StateLive && mf.refs[d.ID] > 0 {
			mf.refs[d.ID] = 1
			h.free(mf, d)
		}
		delete(mf.mapped, d.ID)
	}
	for k := range h.notices {
		if k.holder == d.ID || k.owner == d.ID {
			h.deliver(k)
		}
	}
	for _, p := range h.paths {
		for _, pd := range p.Domains {
			if pd == d {
				h.closePath(p)
			}
		}
	}
}

// mapsPage reports whether d has a PTE for the page at va.
func mapsPage(d *domain.Domain, va vm.VA) bool {
	_, ok := d.AS.Lookup(va)
	return ok
}

func (h *holderModel) compare(step string) {
	h.t.Helper()
	m := h.r.mgr
	for _, f := range h.order {
		mf := h.fbufs[f]
		if mf == nil {
			continue
		}
		if s := f.State(); s != mf.state {
			h.t.Fatalf("%s: fbuf %#x state %s, model %s", step, uint64(f.Base), s, mf.state)
		}
		if f.Refs() != mf.total() {
			h.t.Fatalf("%s: fbuf %#x Refs %d, model %d", step, uint64(f.Base), f.Refs(), mf.total())
		}
		for pg := 0; pg < f.Pages; pg++ {
			if got := m.FbufAt(f.Base + vm.VA(pg*machine.PageSize+100)); got != f {
				h.t.Fatalf("%s: FbufAt inside fbuf %#x page %d finds %p", step, uint64(f.Base), pg, got)
			}
		}
		for _, d := range h.doms {
			if d.Dead() {
				continue
			}
			if f.HeldBy(d) != (mf.refs[d.ID] > 0) {
				h.t.Fatalf("%s: fbuf %#x HeldBy(%s) %v, model refs %d", step, uint64(f.Base), d, f.HeldBy(d), mf.refs[d.ID])
			}
			if mapsPage(d, f.Base) != mf.mapped[d.ID] {
				h.t.Fatalf("%s: fbuf %#x mapped in %s: %v, model %v", step, uint64(f.Base), d, mapsPage(d, f.Base), mf.mapped[d.ID])
			}
		}
	}
	for _, f := range h.gone {
		if m.FbufAt(f.Base) == f || f.State() != StateFree {
			h.t.Fatalf("%s: fbuf %#x not torn down (state %s)", step, uint64(f.Base), f.State())
		}
		for _, d := range h.doms {
			if !d.Dead() && mapsPage(d, f.Base) {
				h.t.Fatalf("%s: torn-down fbuf %#x still mapped in %s", step, uint64(f.Base), d)
			}
		}
	}
	h.gone = h.gone[:0]
	if err := m.CheckInvariants(); err != nil {
		h.t.Fatalf("%s: %v", step, err)
	}
}

// pick returns a random tracked fbuf in state s, or nil.
func (h *holderModel) pick(rng *rand.Rand, s State) *modelFbuf {
	var c []*modelFbuf
	for _, f := range h.order {
		if mf := h.fbufs[f]; mf != nil && mf.state == s {
			c = append(c, mf)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[rng.Intn(len(c))]
}

// holder returns a random live domain holding a reference to mf, or nil.
func (h *holderModel) holder(rng *rand.Rand, mf *modelFbuf) *domain.Domain {
	var c []*domain.Domain
	for _, d := range h.doms {
		if !d.Dead() && mf.refs[d.ID] > 0 {
			c = append(c, d)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[rng.Intn(len(c))]
}

func (h *holderModel) live(rng *rand.Rand) *domain.Domain {
	for {
		if d := h.doms[rng.Intn(len(h.doms))]; !d.Dead() {
			return d
		}
	}
}

func TestHolderTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runHolderModel(t, seed) })
	}
}

func runHolderModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newRig(t)
	r.mgr.NoticeLimit = 3
	h := &holderModel{t: t, r: r, closed: map[*DataPath]bool{}, fbufs: map[*Fbuf]*modelFbuf{},
		notices: map[noticeKey][]*Fbuf{}}
	h.doms = []*domain.Domain{r.src, r.net, r.dst}
	for _, name := range []string{"d3", "d4", "d5"} {
		d := r.reg.New(name)
		r.mgr.AttachDomain(d)
		h.doms = append(h.doms, d)
	}
	ds := h.doms
	for i, pc := range []struct {
		opts  Options
		pages int
		doms  []*domain.Domain
	}{
		{CachedVolatile(), 1, []*domain.Domain{ds[0], ds[1], ds[2]}},
		{Options{Cached: true, Volatile: true, Populate: true}, 2, []*domain.Domain{ds[1], ds[3], ds[4], ds[5], ds[0]}},
		{CachedNonVolatile(), 1, []*domain.Domain{ds[2], ds[5]}},
		{Uncached(), 1, []*domain.Domain{ds[3], ds[4], ds[0]}},
		{UncachedNonVolatile(), 2, []*domain.Domain{ds[4], ds[5], ds[1], ds[2]}},
	} {
		p, err := r.mgr.NewPath(fmt.Sprintf("p%d", i), pc.opts, pc.pages, pc.doms...)
		if err != nil {
			t.Fatal(err)
		}
		h.paths = append(h.paths, p)
	}
	deaths := 0
	for step := 0; step < 400; step++ {
		var what string
		switch op := rng.Intn(100); {
		case op < 20:
			p := h.paths[rng.Intn(len(h.paths))]
			if h.closed[p] || p.Originator().Dead() {
				continue
			}
			f, err := p.Alloc()
			if err != nil {
				t.Fatalf("step %d: alloc on %s: %v", step, p.Name, err)
			}
			h.track(f)
			what = fmt.Sprintf("alloc %#x on %s", uint64(f.Base), p.Name)
		case op < 45:
			mf := h.pick(rng, StateLive)
			if mf == nil {
				continue
			}
			from, to := h.holder(rng, mf), h.live(rng)
			if from == nil {
				continue
			}
			if err := r.mgr.Transfer(mf.f, from, to); err != nil {
				t.Fatalf("step %d: transfer %#x %s->%s: %v", step, uint64(mf.f.Base), from, to, err)
			}
			if from != to && !mf.mapped[to.ID] && !mf.f.opts.Integrated {
				mf.mapped[to.ID] = true
			}
			mf.refs[to.ID]++
			what = fmt.Sprintf("transfer %#x %s->%s", uint64(mf.f.Base), from, to)
		case op < 52:
			mf := h.pick(rng, StateLive)
			if mf == nil {
				continue
			}
			d := h.holder(rng, mf)
			if d == nil {
				continue
			}
			if err := r.mgr.DupRef(mf.f, d); err != nil {
				t.Fatalf("step %d: dupref: %v", step, err)
			}
			mf.refs[d.ID]++
			what = fmt.Sprintf("dupref %#x %s", uint64(mf.f.Base), d)
		case op < 80:
			mf := h.pick(rng, StateLive)
			if mf == nil {
				continue
			}
			d := h.holder(rng, mf)
			if d == nil {
				continue
			}
			if err := r.mgr.Free(mf.f, d); err != nil {
				t.Fatalf("step %d: free %#x by %s: %v", step, uint64(mf.f.Base), d, err)
			}
			h.free(mf, d)
			what = fmt.Sprintf("free %#x by %s", uint64(mf.f.Base), d)
		case op < 85:
			mf := h.pick(rng, StateLive)
			if mf == nil {
				continue
			}
			d := h.holder(rng, mf)
			if d == nil {
				continue
			}
			if err := mf.f.TouchRead(d); err != nil {
				t.Fatalf("step %d: read %#x by %s: %v", step, uint64(mf.f.Base), d, err)
			}
			mf.mapped[d.ID] = true
			what = fmt.Sprintf("read %#x by %s", uint64(mf.f.Base), d)
		case op < 89:
			mf := h.pick(rng, StateLive)
			if mf == nil {
				continue
			}
			d := h.holder(rng, mf)
			if d == nil {
				continue
			}
			if err := r.mgr.Secure(mf.f, d); err != nil {
				t.Fatalf("step %d: secure: %v", step, err)
			}
			what = fmt.Sprintf("secure %#x by %s", uint64(mf.f.Base), d)
		case op < 96:
			holder, owner := h.live(rng), h.live(rng)
			r.mgr.DeliverNotices(holder, owner)
			h.deliver(noticeKey{holder: holder.ID, owner: owner.ID})
			what = fmt.Sprintf("notices %s->%s", holder, owner)
		case op < 98:
			p := h.paths[rng.Intn(len(h.paths))]
			r.mgr.ClosePath(p)
			h.closePath(p)
			what = "close " + p.Name
		default:
			if deaths == 2 {
				continue
			}
			deaths++
			d := h.live(rng)
			r.reg.Terminate(d)
			h.die(d)
			what = "terminate " + d.String()
		}
		h.compare(fmt.Sprintf("step %d (%s)", step, what))
	}
}

// BenchmarkRefOps measures the reference bookkeeping of a three-domain
// crossing on a cached fbuf: Transfer to two receivers, DupRef and HeldBy,
// then Frees until the fbuf recycles, receivers first and the originator
// last so that no notice is queued, and the free-list Alloc that brings it
// back.
func BenchmarkRefOps(b *testing.B) {
	r := newRig(b)
	p := r.path(b, CachedVolatile(), 1, r.src, r.net, r.dst)
	held := false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Transfer(f, r.src, r.net); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.DupRef(f, r.dst); err != nil {
			b.Fatal(err)
		}
		held = f.HeldBy(r.net) && f.HeldBy(r.dst)
		for _, d := range []*domain.Domain{r.dst, r.dst, r.net, r.src} {
			if err := r.mgr.Free(f, d); err != nil {
				b.Fatal(err)
			}
		}
	}
	if !held {
		b.Fatal("receivers did not hold the fbuf")
	}
}
