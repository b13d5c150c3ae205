package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/rings"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// Cmd is one facility operation in a 5-byte total encoding: every byte
// string decodes to an executable command (operands are taken modulo the
// current domain/path/slot counts), which is what makes delta-debugging
// shrinking sound — any subsequence of a failing sequence is itself a
// valid sequence. The same encoding backs the FuzzConformance target.
type Cmd struct {
	Op, A, B, C, D byte
}

// Command opcodes (Op is taken modulo NumOps).
const (
	OpAlloc = iota
	OpAllocBatch
	OpTransfer
	OpSecure
	OpWrite
	OpRead
	OpFree
	OpFreeBatch
	OpDupRef
	OpSetQuota
	OpCrash
	OpReclaim
	OpDeliver
	OpEvict
	OpRingSubmit
	OpRingDrain
	OpDepotExchange
	OpEpochAdvance
	NumOps
)

// Config parameterizes a differential run.
type Config struct {
	// Hooks mutates the reference model (test harness self-checks only).
	Hooks Hooks
	// AuditEvery is the full-state audit cadence in commands (default 8).
	AuditEvery int
}

// Divergence reports the first point where model and implementation
// disagree. It doubles as the counterexample detail for reports.
type Divergence struct {
	Step   int
	Cmd    Cmd
	Desc   string // decoded operation, e.g. "Transfer s3 A->B"
	Detail string
}

// Error formats the divergence for test failures.
func (d *Divergence) Error() string {
	return fmt.Sprintf("step %d (%s): %s", d.Step, d.Desc, d.Detail)
}

// The fixed differential topology. Small geometry keeps every limit —
// chunk exhaustion, quotas, notice overflow — inside reach of short
// command sequences.
const (
	confChunkPages   = 4
	confNumChunks    = 6
	confDefaultQuota = 2
	confNoticeLimit  = 2
	confFrames       = 4096
	confNumDoms      = 4 // kernel, A, B, C
	// confRingDepth keeps the per-pair completion ring tiny so random
	// sequences reach the ring-full skip path.
	confRingDepth = 2
	// Depot geometry on cached paths: 2-fbuf units, 2 shards, and a
	// one-unit stack so a second charge spills into the shards.
	confDepotUnit    = 2
	confDepotShards  = 2
	confDepotMaxFull = 1
)

// pair links a model fbuf to its real counterpart; the link itself is an
// oracle (free-list order bugs surface as identity mismatches on reuse).
type pair struct {
	mf *MFbuf
	rf *core.Fbuf
}

// runner executes commands against the real stack and the model in
// lockstep.
type runner struct {
	cfg    Config
	clk    *simtime.Clock
	sys    *vm.System
	mgr    *core.Manager
	reg    *domain.Registry
	doms   []*domain.Domain
	paths  []*core.DataPath
	model  *Model
	mpaths []*MPath
	pairs  []pair
	rings  map[noticeKey]*rings.Pair
	epoch  *core.EpochWorker
	step   int
}

// newRunner builds a fresh system + model over the fixed topology:
//
//	p0 "pipe": A->B->C  cached volatile, populated, 2 pages
//	p1 "ctrl": A->B     cached non-volatile, populated, FIFO, 1 page
//	p2 "raw":  B->C     uncached non-volatile, populated, 2 pages
//	p3 "kern": K->A     cached volatile, populated, 1 page (trusted orig)
//	p4 "lazy": A->C     cached volatile integrated, unpopulated, 2 pages
func newRunner(cfg Config) (*runner, error) {
	if cfg.AuditEvery <= 0 {
		cfg.AuditEvery = 8
	}
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), confFrames, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManagerGeometry(sys, reg, confChunkPages, confNumChunks)
	mgr.DefaultQuota = confDefaultQuota
	mgr.NoticeLimit = confNoticeLimit

	r := &runner{cfg: cfg, clk: clk, sys: sys, mgr: mgr, reg: reg,
		rings: map[noticeKey]*rings.Pair{}}
	kern := reg.Kernel()
	a := reg.New("A")
	b := reg.New("B")
	c := reg.New("C")
	r.doms = []*domain.Domain{kern, a, b, c}

	r.model = NewModel(confChunkPages, confNumChunks, confDefaultQuota, confNoticeLimit)
	r.model.Hooks = cfg.Hooks
	r.model.RingDepth = confRingDepth
	for _, d := range r.doms {
		r.model.AddDomain(int(d.ID), d.Name, d.Trusted)
	}

	type pathSpec struct {
		name  string
		opts  core.Options
		pages int
		doms  []*domain.Domain
	}
	specs := []pathSpec{
		{"pipe", core.Options{Cached: true, Volatile: true, Populate: true}, 2, []*domain.Domain{a, b, c}},
		{"ctrl", core.Options{Cached: true, Populate: true, FIFO: true}, 1, []*domain.Domain{a, b}},
		{"raw", core.Options{Populate: true}, 2, []*domain.Domain{b, c}},
		{"kern", core.Options{Cached: true, Volatile: true, Populate: true}, 1, []*domain.Domain{kern, a}},
		{"lazy", core.Options{Cached: true, Volatile: true, Integrated: true}, 2, []*domain.Domain{a, c}},
	}
	for _, s := range specs {
		p, err := mgr.NewPath(s.name, s.opts, s.pages, s.doms...)
		if err != nil {
			return nil, fmt.Errorf("conformance: rig path %s: %w", s.name, err)
		}
		ids := make([]int, len(s.doms))
		for i, d := range s.doms {
			ids[i] = int(d.ID)
		}
		mp := r.model.AddPath(p.ID, s.name, s.opts, s.pages, ids...)
		// Cached paths get a depot in conformance geometry: tiny units and
		// a one-unit stack so charge sequences reach the spill path inside
		// a handful of commands.
		if s.opts.Cached {
			d := p.EnableDepot(confDepotUnit, confDepotShards)
			d.SetMaxFull(confDepotMaxFull)
			mp.Depot = &MDepot{
				Unit: confDepotUnit, MaxFull: confDepotMaxFull,
				Shards: make([][]*MFbuf, confDepotShards),
			}
		}
		r.paths = append(r.paths, p)
		r.mpaths = append(r.mpaths, mp)
	}
	// One epoch worker: registering it flips every frame release in the
	// real stack to epoch-deferred, and the model's epoch starts at 1 to
	// match RegisterEpochWorker.
	r.epoch = mgr.RegisterEpochWorker()
	r.model.Epoch = 1
	return r, nil
}

// Operand decoding: total functions of the current state.

func (r *runner) pathAt(b byte) (int, *core.DataPath, *MPath) {
	i := int(b) % len(r.paths)
	return i, r.paths[i], r.mpaths[i]
}

func (r *runner) domAt(b byte) (*domain.Domain, int) {
	d := r.doms[int(b)%confNumDoms]
	return d, int(d.ID)
}

// holderDomAt biases the high byte range toward the slot's current
// holders, so transfers and frees land on domains that actually hold a
// reference often enough to drive the free/notice flow; the low half
// stays uniform so not-holder errors keep getting exercised.
func (r *runner) holderDomAt(b byte, mf *MFbuf) (*domain.Domain, int) {
	if b >= 128 {
		var ids []int
		for id, n := range mf.Refs {
			if n > 0 {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		if len(ids) > 0 {
			id := ids[int(b)%len(ids)]
			for _, d := range r.doms {
				if int(d.ID) == id {
					return d, id
				}
			}
		}
	}
	return r.domAt(b)
}

// userDomAt excludes the kernel (which never crashes).
func (r *runner) userDomAt(b byte) (*domain.Domain, int) {
	d := r.doms[1+int(b)%(confNumDoms-1)]
	return d, int(d.ID)
}

// slotAt decodes a slot index. The high half of the byte range addresses
// the most recently allocated slots, so random sequences form the paper's
// natural alloc→transfer→free chains (and thereby reach the notice
// machinery) far more often than uniform slot choice would.
func (r *runner) slotAt(b byte) int {
	n := len(r.pairs)
	if n == 0 {
		return -1
	}
	if b >= 128 {
		w := 4
		if w > n {
			w = n
		}
		return n - 1 - int(b)%w
	}
	return int(b) % n
}

// span decodes a deterministic access window inside an fbuf, occasionally
// straddling a page boundary.
func span(pages int, c, d byte) (off, n int) {
	size := pages * machine.PageSize
	n = 16
	if d%4 == 0 && pages > 1 {
		off = machine.PageSize - 8
	} else {
		pg := int(c) % pages
		off = pg*machine.PageSize + int(d%7)*16
	}
	if off+n > size {
		off = size - n
	}
	return off, n
}

var quotaTable = []int{-1, 0, 1, 2, 3}
var reclaimTable = []int{1, 2, 4, 1024}

// ring returns (lazily creating) the real ring pair for a (holder, owner)
// notice direction, mirroring the model's Rings map. Capacity matches the
// model's RingDepth so full/empty decisions stay comparable.
func (r *runner) ring(holder, owner int) *rings.Pair {
	k := noticeKey{holder: holder, owner: owner}
	if pr, ok := r.rings[k]; ok {
		return pr
	}
	pr, err := rings.NewPair(r.sys, fmt.Sprintf("conf-%d-%d", holder, owner),
		confRingDepth, r.clk.Now, holder, owner)
	if err != nil {
		panic("conformance: ring pair: " + err.Error()) // capacity is a constant power of two
	}
	r.rings[k] = pr
	return pr
}

// fail constructs a divergence for the current step.
func (r *runner) fail(c Cmd, desc, format string, args ...interface{}) *Divergence {
	return &Divergence{
		Step: r.step, Cmd: c, Desc: desc,
		Detail: fmt.Sprintf(format, args...) + " | model: " + r.model.LiveSummary(),
	}
}

// registerAlloc checks the allocation oracle: a reused model fbuf must
// come back as the very same real fbuf (free-list order), a fresh one must
// land at the exact predicted VA (carve layout).
func (r *runner) registerAlloc(c Cmd, desc string, mf *MFbuf, rf *core.Fbuf) *Divergence {
	if mf.Tag >= 0 {
		if r.pairs[mf.Tag].rf != rf {
			return r.fail(c, desc, "free-list reuse order: model predicts slot s%d (va %#x), implementation returned va %#x",
				mf.Tag, mf.VA, uint64(rf.Base))
		}
		return nil
	}
	if uint64(rf.Base) != mf.VA {
		return r.fail(c, desc, "carve layout: model predicts va %#x, implementation returned %#x", mf.VA, uint64(rf.Base))
	}
	r.pairs = append(r.pairs, pair{mf: mf, rf: rf})
	mf.Tag = len(r.pairs) - 1
	return nil
}

// checkSlot diffs one fbuf's architectural state against its model twin.
func (r *runner) checkSlot(c Cmd, desc string, i int) *Divergence {
	mf, rf := r.pairs[i].mf, r.pairs[i].rf
	wantState := core.StateFree
	switch mf.State {
	case StLive:
		wantState = core.StateLive
	case StDraining:
		wantState = core.StateDrainingNotice
	}
	if got := rf.State(); got != wantState {
		return r.fail(c, desc, "s%d state: model %v, implementation %v", i, wantState, got)
	}
	if got, want := rf.Secured(), mf.Secured; got != want {
		return r.fail(c, desc, "s%d secured: model %v, implementation %v", i, want, got)
	}
	total := 0
	for _, n := range mf.Refs {
		total += n
	}
	if got := rf.Refs(); got != total {
		return r.fail(c, desc, "s%d refcount: model %d, implementation %d", i, total, got)
	}
	for _, d := range r.doms {
		if got, want := rf.HeldBy(d), mf.Refs[int(d.ID)] > 0; got != want {
			return r.fail(c, desc, "s%d held-by %s: model %v, implementation %v", i, d.Name, want, got)
		}
	}
	for pg := 0; pg < mf.Pages; pg++ {
		got := rf.FrameAt(pg) != mem.NoFrame
		if got != mf.Present[pg] {
			return r.fail(c, desc, "s%d page %d frame present: model %v, implementation %v", i, pg, mf.Present[pg], got)
		}
	}
	return nil
}

// audit diffs the entire architectural state: every paired fbuf, every
// path's allocator, the full stats vector, and the manager's own
// invariants (including fbsan's when enabled).
func (r *runner) audit(c Cmd, desc string) *Divergence {
	for i := range r.pairs {
		if div := r.checkSlot(c, desc, i); div != nil {
			return div
		}
	}
	for i, rp := range r.paths {
		mp := r.mpaths[i]
		if got, want := rp.FreeListLen(), len(mp.Free); got != want {
			return r.fail(c, desc, "path %s free-list depth: model %d, implementation %d", mp.Name, want, got)
		}
		if got, want := rp.AllocatedCount(), mp.Allocated; got != want {
			return r.fail(c, desc, "path %s lifetime allocs: model %d, implementation %d", mp.Name, want, got)
		}
		if got, want := rp.Quota(), r.model.EffQuota(mp); got != want {
			return r.fail(c, desc, "path %s effective quota: model %d, implementation %d", mp.Name, want, got)
		}
		// Depot-inventory invariant: the depot's fbuf count and per-shard
		// depths must match the model exchange for exchange.
		if d := rp.Depot(); d != nil && mp.Depot != nil {
			if got, want := d.Inventory(), mp.Depot.inventory(); got != want {
				return r.fail(c, desc, "path %s depot inventory: model %d, implementation %d", mp.Name, want, got)
			}
			for s, got := range d.ShardDepths() {
				if want := len(mp.Depot.Shards[s]); got != want {
					return r.fail(c, desc, "path %s depot shard %d depth: model %d, implementation %d", mp.Name, s, want, got)
				}
			}
		}
	}
	if got, want := r.mgr.EpochNow(), r.model.Epoch; got != want {
		return r.fail(c, desc, "epoch: model %d, implementation %d", want, got)
	}
	if got, want := r.mgr.EpochPending(), r.model.EpochPending(); got != want {
		return r.fail(c, desc, "epoch-parked frames: model %d, implementation %d", want, got)
	}
	real, want := r.mgr.Snapshot(), r.model.Stats
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"Allocs", real.Allocs, want.Allocs},
		{"CacheHits", real.CacheHits, want.CacheHits},
		{"CacheMisses", real.CacheMisses, want.CacheMisses},
		{"Transfers", real.Transfers, want.Transfers},
		{"MappingsBuilt", real.MappingsBuilt, want.MappingsBuilt},
		{"Secures", real.Secures, want.Secures},
		{"Frees", real.Frees, want.Frees},
		{"Recycles", real.Recycles, want.Recycles},
		{"NoticesQueued", real.NoticesQueued, want.NoticesQueued},
		{"NoticesPiggy", real.NoticesPiggy, want.NoticesPiggy},
		{"NoticesExplicit", real.NoticesExplicit, want.NoticesExplicit},
		{"NoticesRing", real.NoticesRing, want.NoticesRing},
		{"FramesReclaimed", real.FramesReclaimed, want.FramesReclaimed},
		{"LazyRefills", real.LazyRefills, want.LazyRefills},
		{"AllocFailures", real.AllocFailures, want.AllocFailures},
		{"PathEvictions", real.PathEvictions, want.PathEvictions},
		{"AdmissionRejects", real.AdmissionRejects, want.AdmissionRejects},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			return r.fail(c, desc, "stats.%s: model %d, implementation %d", ch.name, ch.want, ch.got)
		}
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		return r.fail(c, desc, "implementation invariants: %v", err)
	}
	return nil
}

// exec runs one command on both sides and diffs the outcome. It returns
// the decoded description and a divergence (nil when conformant).
func (r *runner) exec(c Cmd) (string, *Divergence) {
	m := r.model
	switch int(c.Op) % NumOps {
	case OpAlloc:
		_, rp, mp := r.pathAt(c.A)
		desc := "Alloc " + mp.Name
		rf, err := rp.Alloc()
		mf, cls := m.Alloc(mp)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		if cls == OK {
			if div := r.registerAlloc(c, desc, mf, rf); div != nil {
				return desc, div
			}
			return desc, r.checkSlot(c, desc, mf.Tag)
		}
		return desc, nil

	case OpAllocBatch:
		_, rp, mp := r.pathAt(c.A)
		k := 1 + int(c.B)%3
		desc := fmt.Sprintf("AllocBatch %s k=%d", mp.Name, k)
		out := make([]*core.Fbuf, k)
		n, err := rp.AllocBatch(out)
		mfs, cls := m.AllocBatch(mp, k)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		if n != len(mfs) {
			return desc, r.fail(c, desc, "filled count: model %d, implementation %d", len(mfs), n)
		}
		for i := 0; i < n; i++ {
			if div := r.registerAlloc(c, desc, mfs[i], out[i]); div != nil {
				return desc, div
			}
		}
		return desc, nil

	case OpTransfer:
		i := r.slotAt(c.A)
		if i < 0 {
			return "Transfer (no slots)", nil
		}
		from, fromID := r.holderDomAt(c.B, r.pairs[i].mf)
		to, toID := r.domAt(c.C)
		desc := fmt.Sprintf("Transfer s%d %s->%s", i, from.Name, to.Name)
		err := r.mgr.Transfer(r.pairs[i].rf, from, to)
		cls := m.Transfer(r.pairs[i].mf, fromID, toID)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		return desc, r.checkSlot(c, desc, i)

	case OpSecure:
		i := r.slotAt(c.A)
		if i < 0 {
			return "Secure (no slots)", nil
		}
		d, id := r.holderDomAt(c.B, r.pairs[i].mf)
		desc := fmt.Sprintf("Secure s%d by %s", i, d.Name)
		err := r.mgr.Secure(r.pairs[i].rf, d)
		cls := m.Secure(r.pairs[i].mf, id)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		return desc, r.checkSlot(c, desc, i)

	case OpWrite:
		i := r.slotAt(c.A)
		if i < 0 {
			return "Write (no slots)", nil
		}
		mf, rf := r.pairs[i].mf, r.pairs[i].rf
		// Torn fbufs are skipped (their VA may alias a reused chunk);
		// non-live writes are skipped so fbsan's free-list canaries see
		// only protocol-legal stores.
		if mf.Torn || mf.State != StLive {
			return fmt.Sprintf("Write s%d (skip: not live)", i), nil
		}
		d, id := r.domAt(c.B)
		off, n := span(mf.Pages, c.C, c.D)
		desc := fmt.Sprintf("Write s%d by %s off=%d", i, d.Name, off)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(int(c.D) + j*3 + 1)
		}
		err := rf.Write(d, off, data)
		cls := m.Write(mf, id, off, data)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		return desc, r.checkSlot(c, desc, i)

	case OpRead:
		i := r.slotAt(c.A)
		if i < 0 {
			return "Read (no slots)", nil
		}
		mf, rf := r.pairs[i].mf, r.pairs[i].rf
		if mf.Torn {
			return fmt.Sprintf("Read s%d (skip: torn)", i), nil
		}
		d, id := r.domAt(c.B)
		off, n := span(mf.Pages, c.C, c.D)
		desc := fmt.Sprintf("Read s%d by %s off=%d", i, d.Name, off)
		buf := make([]byte, n)
		err := rf.Read(d, off, buf)
		want, cls := m.Read(mf, id, off, n)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		// Contents are only compared while the fbuf is live or draining:
		// free-listed pages legitimately hold fbsan canaries.
		if cls == OK && mf.State != StFree {
			for j := range buf {
				if buf[j] != want[j] {
					return desc, r.fail(c, desc, "content at off %d: model %#x, implementation %#x", off+j, want[j], buf[j])
				}
			}
		}
		return desc, nil

	case OpFree:
		i := r.slotAt(c.A)
		if i < 0 {
			return "Free (no slots)", nil
		}
		d, id := r.holderDomAt(c.B, r.pairs[i].mf)
		desc := fmt.Sprintf("Free s%d by %s", i, d.Name)
		err := r.mgr.Free(r.pairs[i].rf, d)
		cls := m.Free(r.pairs[i].mf, id)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		return desc, r.checkSlot(c, desc, i)

	case OpFreeBatch:
		if len(r.pairs) == 0 {
			return "FreeBatch (no slots)", nil
		}
		first := r.slotAt(c.A)
		d, id := r.holderDomAt(c.B, r.pairs[first].mf)
		k := 1 + int(c.C)%3
		var rfs []*core.Fbuf
		var mfs []*MFbuf
		var idx []string
		for j := 0; j < k; j++ {
			i := (first + j) % len(r.pairs)
			rfs = append(rfs, r.pairs[i].rf)
			mfs = append(mfs, r.pairs[i].mf)
			idx = append(idx, fmt.Sprintf("s%d", i))
		}
		desc := fmt.Sprintf("FreeBatch [%s] by %s", strings.Join(idx, " "), d.Name)
		err := r.mgr.FreeBatch(rfs, d)
		cls := m.FreeBatch(mfs, id)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		return desc, nil

	case OpDupRef:
		i := r.slotAt(c.A)
		if i < 0 {
			return "DupRef (no slots)", nil
		}
		d, id := r.holderDomAt(c.B, r.pairs[i].mf)
		desc := fmt.Sprintf("DupRef s%d by %s", i, d.Name)
		err := r.mgr.DupRef(r.pairs[i].rf, d)
		cls := m.DupRef(r.pairs[i].mf, id)
		if got := Classify(err); got != cls {
			return desc, r.fail(c, desc, "error class: model %v, implementation %v (%v)", cls, got, err)
		}
		return desc, r.checkSlot(c, desc, i)

	case OpSetQuota:
		_, rp, mp := r.pathAt(c.A)
		q := quotaTable[int(c.B)%len(quotaTable)]
		desc := fmt.Sprintf("SetQuota %s %d", mp.Name, q)
		rp.SetQuota(q)
		m.SetQuota(mp, q)
		return desc, nil

	case OpCrash:
		d, id := r.userDomAt(c.A)
		desc := "Crash " + d.Name
		if !m.Domains[id].Dead {
			r.reg.Terminate(d)
			m.Crash(id)
		}
		return desc, r.audit(c, desc) // termination touches everything

	case OpReclaim:
		max := reclaimTable[int(c.A)%len(reclaimTable)]
		desc := fmt.Sprintf("ReclaimIdle %d", max)
		got := r.mgr.ReclaimIdle(max)
		want := m.ReclaimIdle(max)
		if got != want {
			return desc, r.fail(c, desc, "frames reclaimed: model %d, implementation %d", want, got)
		}
		return desc, nil

	case OpDeliver:
		rep, repID := r.domAt(c.A)
		cal, calID := r.domAt(c.B)
		desc := fmt.Sprintf("DeliverNotices %s->%s", rep.Name, cal.Name)
		r.mgr.DeliverNotices(rep, cal)
		m.DeliverNotices(repID, calID)
		return desc, nil

	case OpRingSubmit:
		hol, holID := r.domAt(c.A)
		own, ownID := r.domAt(c.B)
		desc := fmt.Sprintf("RingSubmit %s->%s", hol.Name, own.Name)
		pr := r.ring(holID, ownID)
		full := pr.CompletionsFull()
		if want := m.RingFull(holID, ownID); full != want {
			return desc, r.fail(c, desc, "ring full: model %v, implementation %v", want, full)
		}
		if full {
			return desc + " (full)", nil
		}
		batch := r.mgr.CollectNotices(hol, own)
		if got, want := len(batch), m.RingSubmit(holID, ownID); got != want {
			return desc, r.fail(c, desc, "coalesced batch size: model %d, implementation %d", want, got)
		}
		if len(batch) > 0 {
			if err := pr.Complete(rings.Completion{Op: "notices", Notices: len(batch), Payload: batch}); err != nil {
				return desc, r.fail(c, desc, "completion post after full check: %v", err)
			}
		}
		return desc, nil

	case OpRingDrain:
		hol, holID := r.domAt(c.A)
		own, ownID := r.domAt(c.B)
		desc := fmt.Sprintf("RingDrain %s->%s", hol.Name, own.Name)
		gotEntries, gotNotices := 0, 0
		r.ring(holID, ownID).DrainCompletions(func(cm rings.Completion) {
			gotEntries++
			if fs, ok := cm.Payload.([]*core.Fbuf); ok {
				gotNotices += len(fs)
				r.mgr.RetireNotices(fs)
			}
		})
		wantEntries, wantNotices := 0, 0
		for {
			n := m.RingDrain(holID, ownID)
			if n == 0 {
				break
			}
			wantEntries++
			wantNotices += n
		}
		if gotEntries != wantEntries || gotNotices != wantNotices {
			return desc, r.fail(c, desc, "drained entries/notices: model %d/%d, implementation %d/%d",
				wantEntries, wantNotices, gotEntries, gotNotices)
		}
		// Retiring recycles whole batches — the free-list identity oracle
		// (registerAlloc) then proves no free was lost or duplicated.
		return desc, r.audit(c, desc)

	case OpDepotExchange:
		_, rp, mp := r.pathAt(c.A)
		if c.B%2 == 0 {
			n := 1 + int(c.C)%3
			desc := fmt.Sprintf("DepotCharge %s n=%d", mp.Name, n)
			got := rp.DepotCharge(n)
			want := m.DepotCharge(mp, n)
			if got != want {
				return desc, r.fail(c, desc, "fbufs charged: model %d, implementation %d", want, got)
			}
			return desc, nil
		}
		desc := "DepotDischarge " + mp.Name
		got := rp.DepotDischarge()
		want := m.DepotDischarge(mp)
		if got != want {
			return desc, r.fail(c, desc, "fbufs discharged: model %d, implementation %d", want, got)
		}
		return desc, nil

	case OpEpochAdvance:
		switch c.A % 4 {
		case 2:
			r.epoch.Enter()
			m.EpochEnter()
			return "EpochEnter", nil
		case 3:
			r.epoch.Exit()
			m.EpochExit()
			return "EpochExit", nil
		default:
			desc := "AdvanceEpoch"
			got := r.mgr.AdvanceEpoch()
			want := m.AdvanceEpoch()
			if got != want {
				return desc, r.fail(c, desc, "frames retired: model %d, implementation %d", want, got)
			}
			if got, want := r.mgr.EpochPending(), m.EpochPending(); got != want {
				return desc, r.fail(c, desc, "frames still parked: model %d, implementation %d", want, got)
			}
			return desc, nil
		}

	default: // OpEvict
		_, rp, mp := r.pathAt(c.A)
		desc := "EvictPath " + mp.Name
		got := r.mgr.EvictPath(rp)
		want := m.EvictPath(mp)
		if got != want {
			return desc, r.fail(c, desc, "fbufs torn down: model %d, implementation %d", want, got)
		}
		// Eviction must never revoke a live or draining fbuf — a full
		// audit catches any reference or state the teardown overreached.
		return desc, r.audit(c, desc)
	}
}

// RunTrace executes a command sequence, returning the first divergence
// (nil if conformant) and the decoded per-step descriptions.
func RunTrace(cmds []Cmd, cfg Config) (*Divergence, []string) {
	r, err := newRunner(cfg)
	if err != nil {
		return &Divergence{Detail: err.Error()}, nil
	}
	trace := make([]string, 0, len(cmds))
	for i, c := range cmds {
		r.step = i
		desc, div := r.exec(c)
		trace = append(trace, desc)
		if div != nil {
			return div, trace
		}
		if (i+1)%r.cfg.AuditEvery == 0 {
			if div := r.audit(c, desc+" [audit]"); div != nil {
				return div, trace
			}
		}
	}
	if div := r.audit(Cmd{}, "final audit"); div != nil {
		return div, trace
	}
	return nil, trace
}

// Run executes a command sequence and returns the first divergence.
func Run(cmds []Cmd, cfg Config) *Divergence {
	div, _ := RunTrace(cmds, cfg)
	return div
}

// Generate produces a seeded command sequence with an allocation-heavy op
// mix (the weights keep buffers circulating so transfers and frees land
// on live state often enough to matter).
func Generate(seed int64, n int) []Cmd {
	rnd := rand.New(rand.NewSource(seed))
	weights := []struct {
		op int
		w  int
	}{
		{OpAlloc, 18}, {OpAllocBatch, 7}, {OpTransfer, 18}, {OpSecure, 6},
		{OpWrite, 11}, {OpRead, 11}, {OpFree, 16}, {OpFreeBatch, 5},
		{OpDupRef, 4}, {OpSetQuota, 3}, {OpCrash, 1}, {OpReclaim, 3},
		{OpDeliver, 5}, {OpEvict, 2}, {OpRingSubmit, 3}, {OpRingDrain, 2},
		{OpDepotExchange, 3}, {OpEpochAdvance, 2},
	}
	total := 0
	for _, w := range weights {
		total += w.w
	}
	cmds := make([]Cmd, n)
	for i := range cmds {
		pick := rnd.Intn(total)
		op := OpAlloc
		for _, w := range weights {
			if pick < w.w {
				op = w.op
				break
			}
			pick -= w.w
		}
		cmds[i] = Cmd{
			Op: byte(op),
			A:  byte(rnd.Intn(256)),
			B:  byte(rnd.Intn(256)),
			C:  byte(rnd.Intn(256)),
			D:  byte(rnd.Intn(256)),
		}
	}
	return cmds
}

// Shrink delta-debugs a failing command sequence to a locally minimal one:
// it removes progressively smaller chunks, keeping any candidate that
// still diverges. Because the encoding is total, every subsequence is
// executable; the shrunk sequence may diverge differently than the
// original — any divergence is a bug.
func Shrink(cmds []Cmd, cfg Config) []Cmd {
	cur := append([]Cmd(nil), cmds...)
	div := Run(cur, cfg)
	if div == nil {
		return cur
	}
	if div.Step+1 < len(cur) {
		cur = cur[:div.Step+1]
	}
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(cur); {
			cand := make([]Cmd, 0, len(cur)-chunk)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+chunk:]...)
			if d := Run(cand, cfg); d != nil {
				cur = cand
				if d.Step+1 < len(cur) {
					cur = cur[:d.Step+1]
				}
			} else {
				i += chunk
			}
		}
	}
	return cur
}

// Counterexample packages a failing seed for replay and reporting.
type Counterexample struct {
	Seed     int64
	Cfg      Config
	Original []Cmd
	Shrunk   []Cmd
	Div      *Divergence
}

// String renders the replay recipe and the shrunk command list.
func (ce *Counterexample) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "conformance divergence (seed %d, %d commands, shrunk to %d):\n",
		ce.Seed, len(ce.Original), len(ce.Shrunk))
	_, trace := RunTrace(ce.Shrunk, ce.Cfg)
	for i, c := range ce.Shrunk {
		desc := "?"
		if i < len(trace) {
			desc = trace[i]
		}
		fmt.Fprintf(&sb, "  %2d: {%d,%d,%d,%d,%d} %s\n", i, c.Op, c.A, c.B, c.C, c.D, desc)
	}
	if ce.Div != nil {
		fmt.Fprintf(&sb, "  => %s\n", ce.Div.Error())
	}
	fmt.Fprintf(&sb, "replay: fbufsim -conform -seed=%d\n", ce.Seed)
	return sb.String()
}

// RunSeed generates, runs, and (on failure) shrinks one seeded sequence.
// It returns nil when the implementation conforms.
func RunSeed(seed int64, n int, cfg Config) *Counterexample {
	cmds := Generate(seed, n)
	div := Run(cmds, cfg)
	if div == nil {
		return nil
	}
	shrunk := Shrink(cmds[:div.Step+1], cfg)
	return &Counterexample{
		Seed:     seed,
		Cfg:      cfg,
		Original: cmds,
		Shrunk:   shrunk,
		Div:      Run(shrunk, cfg),
	}
}
