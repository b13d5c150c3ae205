package aggregate

import (
	"cmp"
	"fmt"
	"slices"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs/span"
	"fbufs/internal/vm"
)

// Ctx is an allocation context: the identity (domain) performing message
// operations, the data-path allocator its buffers come from, and — in
// integrated mode — the arena of node fbufs its DAG nodes are written to.
// Each software layer that edits messages (a protocol attaching headers, a
// driver wrapping received PDUs, a proxy opening what crosses into its
// domain) owns a Ctx in its domain.
//
// A Ctx is also the home of the message slots it creates. A consumed
// message's slot goes back to its home's LIFO pool, whichever Ctx's edit
// consumed it, and the home's next message reuses it; a Ctx creates a slot
// only when its pool is empty. A Ctx and the messages whose slots it
// holds are used by one goroutine at a time.
type Ctx struct {
	Mgr *core.Manager
	Dom *domain.Domain

	data *core.DataPath // nil: use the default (uncached) allocator
	// uncachedOpts/uncachedPages configure default-allocator requests.
	uncachedOpts  core.Options
	uncachedPages int

	nodes      *core.DataPath // 1-page node fbufs (integrated mode)
	integrated bool

	cur     *core.Fbuf
	curOff  int
	retired []*core.Fbuf
	// run holds the nodes encoded into cur from offset runOff on and not
	// yet stored (see flush).
	run    []byte
	runOff int

	// Deterministic per-Ctx scratch state, reused across operations so the
	// steady-state editing path stays allocation-free (a Ctx belongs to one
	// layer in one domain; nothing here is shared). Not sync.Pool: pool
	// behavior must not depend on goroutine identity or GC timing.
	refs     []ref
	added    []*core.Fbuf
	nodeBuf  []*core.Fbuf
	leafBuf  []vm.VA
	batchBuf []*core.Fbuf
	segBuf   []Seg
	// lists gathers fbuf lists: fromSegs's, or Join's operand layouts.
	lists [2][]*core.Fbuf
	// frames is Open's traversal stack.
	frames []frame

	// pool holds the idle slots this Ctx created, last in first out.
	pool []*slot
	// handles is the slab new handles are cut from. A handle is never
	// handed out again, so a consumed one stays consumed.
	handles []Msg
	// hdrSlab is the slab Pop's headers are cut from, also never handed
	// out again: a popped header stays the caller's.
	hdrSlab []byte
}

// Slab sizes, in entries. Small, so that a handle or header held for long
// (a retransmission buffer) pins little else.
const (
	handleSlabLen = 256
	hdrSlabLen    = 512
)

// take returns an idle slot of c's: the last one back in its pool, or a new
// one when the pool is empty.
func (c *Ctx) take() *slot {
	n := len(c.pool)
	if n == 0 {
		return newSlot(c)
	}
	s := c.pool[n-1]
	c.pool = c.pool[:n-1]
	return s
}

// handle returns a new handle on s, cut from c's slab.
func (c *Ctx) handle(s *slot) *Msg {
	if len(c.handles) == 0 {
		c.handles = make([]Msg, handleSlabLen)
	}
	m := &c.handles[0]
	c.handles = c.handles[1:]
	m.s = s
	return m
}

// ref is one line of an edit's reference balance: references to f that the
// edit's inputs bring (have) and that its outputs must hold (need).
type ref struct {
	f          *core.Fbuf
	have, need int
}

// NewCtx builds a context over a data path. In integrated mode a companion
// one-page node path with the same domains and options is created.
func NewCtx(mgr *core.Manager, data *core.DataPath, integrated bool) (*Ctx, error) {
	c := &Ctx{
		Mgr:        mgr,
		Dom:        data.Originator(),
		data:       data,
		integrated: integrated,
	}
	if integrated {
		np, err := mgr.NewPath(data.Name+".nodes", data.Options(), 1, data.Domains...)
		if err != nil {
			return nil, err
		}
		c.nodes = np
	}
	return c, nil
}

// NewUncachedCtx builds a context over the default allocator: every data
// fbuf is uncached, sized pages, with the given options.
func NewUncachedCtx(mgr *core.Manager, dom *domain.Domain, opts core.Options, pages int, integrated bool) *Ctx {
	mgr.AttachDomain(dom)
	return &Ctx{
		Mgr:           mgr,
		Dom:           dom,
		uncachedOpts:  opts,
		uncachedPages: pages,
		integrated:    integrated,
	}
}

// DataFbufBytes returns the byte capacity of one data fbuf from this
// context's allocator.
func (c *Ctx) DataFbufBytes() int {
	if c.data != nil {
		return c.data.FbufPages() * machine.PageSize
	}
	return c.uncachedPages * machine.PageSize
}

// Integrated reports the context's storage mode.
func (c *Ctx) Integrated() bool { return c.integrated }

func (c *Ctx) allocData() (*core.Fbuf, error) {
	if c.data != nil {
		return c.data.Alloc()
	}
	return c.Mgr.AllocUncached(c.Dom, c.uncachedPages, c.uncachedOpts)
}

// allocDataBatch allocates k data fbufs into the Ctx's scratch buffer —
// valid until the next batch — paying one allocator lock acquisition for
// the whole batch on a cached path. Error semantics match k individual
// allocations failing at buffer len(result): already-allocated buffers
// keep their references (the caller's rebalance or teardown drops them).
func (c *Ctx) allocDataBatch(k int) ([]*core.Fbuf, error) {
	if cap(c.batchBuf) < k {
		c.batchBuf = make([]*core.Fbuf, k)
	}
	bufs := c.batchBuf[:k]
	if c.data != nil {
		n, err := c.data.AllocBatch(bufs)
		if err != nil {
			return bufs[:n], err
		}
		return bufs, nil
	}
	for i := range bufs {
		f, err := c.Mgr.AllocUncached(c.Dom, c.uncachedPages, c.uncachedOpts)
		if err != nil {
			return bufs[:i], err
		}
		bufs[i] = f
	}
	return bufs, nil
}

// Close releases the arena's reference on the current node fbuf. Call when
// the context's layer shuts down.
func (c *Ctx) Close() error {
	c.endOp()
	if c.cur != nil {
		if err := c.Mgr.Free(c.cur, c.Dom); err != nil {
			return err
		}
		c.cur = nil
	}
	return nil
}

// endOp drops the arena's references on node fbufs retired during the
// completed operation (messages built by the operation hold their own), in
// one batched free that pays the allocator lock once.
func (c *Ctx) endOp() {
	if len(c.retired) == 0 {
		return
	}
	// The arena's refs must exist unless the ctx is being torn down
	// concurrently, which the control-plane contract excludes.
	if err := c.Mgr.FreeBatch(c.retired, c.Dom); err != nil {
		panic("aggregate: arena ref accounting: " + err.Error())
	}
	c.retired = c.retired[:0]
}

// rebalance moves fbuf references from a consumed input message (none when
// in is nil) to output messages: for every unique fbuf, the outputs must
// end up holding exactly one reference each. pre lists references the
// caller already owns (freshly allocated data fbufs carry their allocator
// reference). The outputs are built in slots of their own, so the input's
// slot goes back to its Ctx.
func (c *Ctx) rebalance(pre []*core.Fbuf, in *Msg, outs ...*Msg) error {
	refs := c.refs[:0]
	for _, f := range pre {
		refs = append(refs, ref{f: f, have: 1})
	}
	var s *slot
	if in != nil {
		if s = in.s; s == nil {
			return ErrConsumed
		}
		for _, f := range s.fbufs {
			refs = append(refs, ref{f: f, have: 1})
		}
	}
	for _, out := range outs {
		for _, f := range out.s.fbufs {
			refs = append(refs, ref{f: f, need: 1})
		}
	}
	c.refs = refs
	if err := c.apply(refs, in); err != nil {
		return err
	}
	if s != nil {
		s.release()
	}
	return nil
}

// apply settles a reference balance and consumes the inputs (nil ones are
// skipped), leaving their slots to the caller. Lines for the same fbuf are
// summed; each fbuf then takes need-have new references or drops
// have-need. Ref-count ops emit trace events and charge the simulated
// clock, so they run in region-VA order, the stable identity of an fbuf
// within one manager.
func (c *Ctx) apply(refs []ref, inputs ...*Msg) error {
	slices.SortFunc(refs, func(x, y ref) int { return cmp.Compare(x.f.Base, y.f.Base) })
	n := 0
	for _, r := range refs {
		if n > 0 && refs[n-1].f == r.f {
			refs[n-1].have += r.have
			refs[n-1].need += r.need
			continue
		}
		refs[n] = r
		n++
	}
	refs = refs[:n]
	// Take new references first (every fbuf needing extras has >=1 live
	// reference: an input's, the caller's allocator reference, or the
	// arena's).
	for _, r := range refs {
		for i := r.have; i < r.need; i++ {
			if err := c.Mgr.DupRef(r.f, c.Dom); err != nil {
				return fmt.Errorf("aggregate: rebalance dupref: %w", err)
			}
		}
	}
	for _, in := range inputs {
		if in != nil {
			in.s = nil
		}
	}
	for _, r := range refs {
		for i := r.need; i < r.have; i++ {
			if err := c.Mgr.Free(r.f, c.Dom); err != nil {
				return fmt.Errorf("aggregate: rebalance free: %w", err)
			}
		}
	}
	c.endOp()
	return nil
}

// NewData allocates fbufs for data, writes it, and returns the message.
// Multi-fbuf messages allocate their buffers as one batch.
func (c *Ctx) NewData(data []byte) (*Msg, error) {
	if o := c.Mgr.Sys.Obs; o != nil {
		o.SpanBegin(span.StageAlloc, "aggregate", int(c.Dom.ID)+c.Mgr.Sys.TraceBase, int64(len(data)))
		defer o.SpanEnd()
	}
	cap := c.DataFbufBytes()
	k := (len(data) + cap - 1) / cap
	bufs, err := c.allocDataBatch(k)
	if err != nil {
		return nil, err
	}
	segs := c.segBuf[:0]
	for i, f := range bufs {
		off := i * cap
		n := len(data) - off
		if n > cap {
			n = cap
		}
		if err := f.Write(c.Dom, 0, data[off:off+n]); err != nil {
			return nil, err
		}
		segs = append(segs, Seg{F: f, VA: f.Base, N: n})
	}
	c.segBuf = segs
	return c.finish(bufs, segs)
}

// NewTouched allocates an n-byte message writing only one word in each
// page — the paper's throughput-test source pattern, which isolates
// transfer costs from data-generation costs. The data fbufs are allocated
// as one batch.
func (c *Ctx) NewTouched(n int) (*Msg, error) {
	if o := c.Mgr.Sys.Obs; o != nil {
		o.SpanBegin(span.StageAlloc, "aggregate", int(c.Dom.ID)+c.Mgr.Sys.TraceBase, int64(n))
		defer o.SpanEnd()
	}
	cap := c.DataFbufBytes()
	k := (n + cap - 1) / cap
	bufs, err := c.allocDataBatch(k)
	if err != nil {
		return nil, err
	}
	segs := c.segBuf[:0]
	for i, f := range bufs {
		off := i * cap
		take := n - off
		if take > cap {
			take = cap
		}
		for o := 0; o < take; o += machine.PageSize {
			if err := f.Write(c.Dom, o, []byte{1, 2, 3, 4}); err != nil {
				return nil, err
			}
		}
		segs = append(segs, Seg{F: f, VA: f.Base, N: take})
	}
	c.segBuf = segs
	return c.finish(bufs, segs)
}

// WrapFbuf builds a message over bytes already present in an fbuf the
// context's domain holds (a driver wrapping a DMA-filled reassembly
// buffer). The message takes over one of the caller's references.
func (c *Ctx) WrapFbuf(f *core.Fbuf, off, n int) (*Msg, error) {
	if off < 0 || n < 0 || off+n > f.Size() {
		return nil, fmt.Errorf("%w: wrap [%d,%d) of %d-byte fbuf", ErrRange, off, off+n, f.Size())
	}
	if !f.HeldBy(c.Dom) {
		return nil, core.ErrNotHolder
	}
	segs := c.segBuf[:0]
	if n > 0 {
		segs = append(segs, Seg{F: f, VA: f.Base + vm.VA(off), N: n})
	}
	c.segBuf = segs
	return c.finish([]*core.Fbuf{f}, segs)
}

// Join concatenates a then b, consuming both. In integrated mode this
// writes a single pair node referencing the two existing DAG roots.
//
// The result takes over a's slot, appends b's segments and fbufs to a's
// lists, and every fbuf it keeps in a's place keeps a's reference. So only
// b's side enters the balance handed to apply: b's references, the fbufs
// b adds to the result, and the few of a's that the result moves or
// drops. Left-folding n fragments (IP reassembly) therefore does O(n)
// work. b's slot goes back to its Ctx.
//
// Join(m, m) would consume m twice: it fails with ErrConsumed and leaves m
// as it was.
func (c *Ctx) Join(a, b *Msg) (*Msg, error) {
	as, bs := a.s, b.s
	if as == nil || bs == nil || a == b {
		return nil, ErrConsumed
	}
	length := as.length + bs.length
	var root vm.VA
	var node *core.Fbuf
	if c.integrated {
		// Keep referencing the operands' node fbufs: their DAGs are
		// now our subtrees.
		var err error
		if root, node, err = c.joinRoot(as.rootVA, bs.rootVA, length); err != nil {
			return nil, err
		}
	}
	al, an := as.layout(&c.lists[0])
	bl, bn := bs.layout(&c.lists[1])
	aData, aNodes := al[:an], al[an:]
	refs, added := c.refs[:0], c.added[:0]
	for _, f := range bs.fbufs {
		refs = append(refs, ref{f: f, have: 1})
	}
	if as.ndata < 0 {
		// Data an Opened view's domain was not granted.
		for _, f := range aData {
			if !slices.Contains(as.fbufs, f) {
				refs = append(refs, ref{f: f, need: 1})
			}
		}
	}
	for _, f := range bl[:bn] {
		if !slices.Contains(aData, f) {
			added = append(added, f)
			refs = append(refs, ref{f: f, need: 1})
		}
	}
	nNew := len(added)
	// A node fbuf of a moves when b uses it as data; private mode drops
	// node fbufs.
	moved := func(f *core.Fbuf) bool { return !c.integrated || slices.Contains(added[:nNew], f) }
	for _, f := range aNodes {
		if moved(f) {
			refs = append(refs, ref{f: f, have: 1})
		}
	}
	if c.integrated {
		for _, f := range bl[bn:] {
			if !slices.Contains(aNodes, f) && !slices.Contains(aData, f) {
				added = append(added, f)
				refs = append(refs, ref{f: f, need: 1})
			}
		}
		if !slices.Contains(aNodes, node) && !slices.Contains(added, node) && !slices.Contains(aData, node) {
			added = append(added, node)
			refs = append(refs, ref{f: node, need: 1})
		}
	}
	c.refs, c.added = refs, added
	if err := c.apply(refs, a, b); err != nil {
		return nil, err
	}
	// a's lists are the result's to extend in place; append grows them
	// geometrically, so a left fold copies each entry amortised O(1)
	// times.
	fbufs := al
	if as.ndata < 0 {
		// An Opened view's layout is Ctx scratch.
		fbufs = append(as.fbufs[:0], al...)
	}
	ndata := an + nNew
	fbufs = slices.Insert(fbufs, an, added[:nNew]...)
	kept := slices.DeleteFunc(fbufs[ndata:], moved)
	as.mgr, as.integrated, as.rootVA, as.ndata, as.length = c.Mgr, c.integrated, root, ndata, length
	as.segs = append(as.segs, bs.segs...)
	as.fbufs = append(fbufs[:ndata+len(kept)], added[nNew:]...)
	bs.release()
	return c.handle(as), nil
}

// Split divides the message at byte offset off, consuming it and returning
// the two halves. Data is never copied: boundary-crossing leaves are
// re-described by offset/length, exactly as the paper prescribes for IP
// fragmentation.
//
// Like Join, the second half takes over m's slot when m's layout allows
// (see keep), so cutting n fragments off a message builds each fragment's
// lists, not the remainder's.
func (c *Ctx) Split(m *Msg, off int) (*Msg, *Msg, error) {
	s := m.s
	if s == nil {
		return nil, nil, ErrConsumed
	}
	if off < 0 || off > s.length {
		return nil, nil, fmt.Errorf("%w: split at %d of %d", ErrRange, off, s.length)
	}
	a, err := c.fromSegs(c.sliceSegs(s.segs, 0, off))
	if err != nil {
		return nil, nil, err
	}
	if k, ok := s.cut(off); ok {
		b, err := c.keep(m, k, a)
		if err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	b, err := c.fromSegs(c.sliceSegs(s.segs, off, s.length-off))
	if err != nil {
		return nil, nil, err
	}
	if err := c.rebalance(nil, m, a, b); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// ClipHead drops the first n bytes (popping a protocol header), consuming
// m. The result takes over m's slot as Split's second half does.
func (c *Ctx) ClipHead(m *Msg, n int) (*Msg, error) {
	s := m.s
	if s == nil {
		return nil, ErrConsumed
	}
	if n < 0 || n > s.length {
		return nil, fmt.Errorf("%w: clip %d of %d", ErrRange, n, s.length)
	}
	if k, ok := s.cut(n); ok {
		return c.keep(m, k, nil)
	}
	out, err := c.fromSegs(c.sliceSegs(s.segs, n, s.length-n))
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(nil, m, out); err != nil {
		return nil, err
	}
	return out, nil
}

// cut is where an edit divides a message: its tail, the bytes from off
// on, starts d bytes into segment i. The tail's data fbufs are
// fbufs[jb:ndata]; shared reports that the head holds the first of them
// too.
type cut struct {
	off, i, d, jb int
	shared        bool
}

// cut locates byte off of s's message and reports whether the tail may
// take over its slot: it is a built message, no segment lacks its fbuf,
// and from the boundary on each data fbuf backs one run of segments, in
// list order. Then only the boundary fbuf can back segments on both
// sides. Join(m, Clone(m)) builds an X,Y,X layout that fails the test, as
// do Opened views, whose fbufs are in traversal order.
func (s *slot) cut(off int) (cut, bool) {
	k := cut{off: off}
	if s.ndata < 0 {
		return k, false
	}
	pos := 0
	for k.i < len(s.segs) && pos+s.segs[k.i].N <= off {
		pos += s.segs[k.i].N
		k.i++
	}
	k.d = off - pos
	head := s.segs[:k.i]
	if k.d > 0 {
		head = s.segs[:k.i+1]
	}
	// A built message lists its data fbufs in order of first use, so
	// each segment's fbuf is the next unmet one or one met before.
	data := s.fbufs[:s.ndata]
	met := 0
	var last *core.Fbuf
	for _, sg := range head {
		if sg.F == nil {
			return k, false
		}
		if met < len(data) && sg.F == data[met] {
			met++
		}
		last = sg.F
	}
	k.jb = met
	for j, sg := range s.segs[k.i:] {
		switch {
		case sg.F == nil:
			return k, false
		case sg.F == last:
			if j == 0 {
				// The boundary fbuf: both halves hold it, and it
				// must be the last one the head met.
				if met == 0 || data[met-1] != last {
					return k, false
				}
				k.jb, k.shared = met-1, true
			}
		case met < len(data) && sg.F == data[met]:
			met++
		default:
			return k, false
		}
		last = sg.F
	}
	return k, met == len(data)
}

// keep builds the tail of an edit, m's bytes from cut k on, in m's own
// slot: the boundary segment is trimmed in place and fbufs[k.jb:] becomes
// the tail's fbuf list. head, when not nil, is the edit's other output,
// already built. Every data fbuf but the boundary one stays with one side
// and keeps m's reference, so only the fbufs whose counts move enter the
// balance: m's node fbufs, head's and the tail's, the boundary fbuf when
// head holds it too, and, with no head, the data fbufs the edit drops. m
// is consumed when the balance is applied; a failure before that leaves
// it as it was.
func (c *Ctx) keep(m *Msg, k cut, head *Msg) (*Msg, error) {
	s := m.s
	segs := s.segs[k.i:]
	var boundary Seg
	if k.d > 0 {
		boundary = segs[0]
		segs[0].VA += vm.VA(k.d)
		segs[0].N -= k.d
	}
	fail := func(err error) (*Msg, error) {
		if k.d > 0 {
			segs[0] = boundary
		}
		return nil, err
	}
	var root vm.VA
	var nodes []*core.Fbuf
	if c.integrated {
		var err error
		if root, nodes, err = c.buildRoot(segs); err != nil {
			return fail(err)
		}
	}
	data := s.fbufs[k.jb:s.ndata]
	refs, added := c.refs[:0], c.added[:0]
	for _, f := range s.fbufs[s.ndata:] {
		refs = append(refs, ref{f: f, have: 1})
	}
	if head == nil {
		for _, f := range s.fbufs[:k.jb] {
			refs = append(refs, ref{f: f, have: 1})
		}
	} else {
		for _, f := range head.s.fbufs[head.s.ndata:] {
			refs = append(refs, ref{f: f, need: 1})
		}
		if k.shared {
			refs = append(refs, ref{f: data[0], need: 1})
		}
	}
	for _, f := range nodes {
		if !slices.Contains(data, f) {
			added = append(added, f)
			refs = append(refs, ref{f: f, need: 1})
		}
	}
	c.refs, c.added = refs, added
	if err := c.apply(refs, m); err != nil {
		return fail(err)
	}
	// The tail's entries move to the front of the slot's lists, so the
	// slot keeps their whole capacity for its next message.
	s.mgr, s.integrated, s.rootVA, s.ndata, s.length = c.Mgr, c.integrated, root, len(data), s.length-k.off
	s.segs = s.segs[:copy(s.segs, segs)]
	s.fbufs = append(s.fbufs[:copy(s.fbufs, data)], added...)
	c.validate(s)
	return c.handle(s), nil
}

// ClipTail drops the last n bytes, consuming m.
func (c *Ctx) ClipTail(m *Msg, n int) (*Msg, error) {
	s := m.s
	if s == nil {
		return nil, ErrConsumed
	}
	if n < 0 || n > s.length {
		return nil, fmt.Errorf("%w: clip %d of %d", ErrRange, n, s.length)
	}
	out, err := c.fromSegs(c.sliceSegs(s.segs, 0, s.length-n))
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(nil, m, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Push prepends header bytes (allocated from this context, typically a
// protocol's own small fbufs) to m, consuming m.
func (c *Ctx) Push(m *Msg, hdr []byte) (*Msg, error) {
	h, err := c.NewData(hdr)
	if err != nil {
		return nil, err
	}
	return c.Join(h, m)
}

// Pop reads and strips an n-byte header, consuming m. The header is cut
// from the Ctx's header slab and stays the caller's.
func (c *Ctx) Pop(m *Msg, n int) ([]byte, *Msg, error) {
	if m.s == nil {
		return nil, nil, ErrConsumed
	}
	var hdr []byte
	switch {
	case n > hdrSlabLen:
		hdr = make([]byte, n)
	case n > 0:
		if len(c.hdrSlab) < n {
			c.hdrSlab = make([]byte, hdrSlabLen)
		}
		hdr = c.hdrSlab[:n:n]
		c.hdrSlab = c.hdrSlab[n:]
	}
	if err := m.Read(c.Dom, 0, hdr); err != nil {
		return nil, nil, err
	}
	rest, err := c.ClipHead(m, n)
	if err != nil {
		return nil, nil, err
	}
	return hdr, rest, nil
}

// fromSegs builds a message over a copy of segs in a slot of c's, writing
// a fresh DAG chain in integrated mode. Reference accounting is the
// caller's job (rebalance).
func (c *Ctx) fromSegs(segs []Seg) (*Msg, error) {
	fbufs := appendData(c.lists[0][:0], segs)
	ndata := len(fbufs)
	var root vm.VA
	if c.integrated {
		var nodes []*core.Fbuf
		var err error
		if root, nodes, err = c.buildRoot(segs); err != nil {
			return nil, err
		}
		for _, f := range nodes {
			if !slices.Contains(fbufs, f) {
				fbufs = append(fbufs, f)
			}
		}
	}
	c.lists[0] = fbufs
	s := c.take()
	s.mgr, s.integrated, s.rootVA, s.ndata, s.length = c.Mgr, c.integrated, root, ndata, totalLen(segs)
	s.segs = append(s.segs[:0], segs...)
	s.fbufs = append(s.fbufs[:0], fbufs...)
	c.validate(s)
	return c.handle(s), nil
}

// finish completes message construction from freshly allocated fbufs.
func (c *Ctx) finish(pre []*core.Fbuf, segs []Seg) (*Msg, error) {
	m, err := c.fromSegs(segs)
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(pre, nil, m); err != nil {
		return nil, err
	}
	return m, nil
}

// sliceSegs returns the sub-segment-list covering [off, off+n), in Ctx
// scratch.
func (c *Ctx) sliceSegs(segs []Seg, off, n int) []Seg {
	out := c.segBuf[:0]
	for _, s := range segs {
		if n == 0 {
			break
		}
		if off >= s.N {
			off -= s.N
			continue
		}
		take := s.N - off
		if take > n {
			take = n
		}
		out = append(out, Seg{F: s.F, VA: s.VA + vm.VA(off), N: take})
		n -= take
		off = 0
	}
	c.segBuf = out
	return out
}
