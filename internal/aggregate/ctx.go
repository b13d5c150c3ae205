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
// driver wrapping received PDUs) owns a Ctx in its domain.
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

	// Bump slabs every Msg the Ctx builds, and its segment and fbuf
	// lists, are carved from (see carve). A carve is never handed out
	// again, so a consumed Msg stays consumed and its lists stay its own
	// until the edit that consumed it takes them over (Join, Split,
	// ClipHead); the GC frees a slab once nothing carved from it is
	// reachable.
	msgSlab  []Msg
	segSlab  []Seg
	fbufSlab []*core.Fbuf
	// hdrSlab is carved the same way for the headers Pop returns.
	hdrSlab []byte
}

// Slab sizes, in entries. Small, so that a message held for long (a
// retransmission buffer) pins little else.
const (
	msgSlabLen  = 16
	listSlabLen = 64
	hdrSlabLen  = 512
)

// carve returns an empty list with capacity exactly n, cut from the front
// of *slab, which is replaced by a fresh slab of slabLen entries when too
// short; a list longer than a slab gets storage of its own. Because the
// capacity is exact, an append past it moves to new storage and never
// writes into the next carve.
func carve[T any](slab *[]T, slabLen, n int) []T {
	if n == 0 {
		return nil
	}
	if n > slabLen {
		return make([]T, 0, n)
	}
	if len(*slab) < n {
		*slab = make([]T, slabLen)
	}
	l := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return l
}

// newMsg carves a zeroed Msg from the Ctx's slab.
func (c *Ctx) newMsg() *Msg {
	if len(c.msgSlab) == 0 {
		c.msgSlab = make([]Msg, msgSlabLen)
	}
	m := &c.msgSlab[0]
	c.msgSlab = c.msgSlab[1:]
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

// rebalance moves fbuf references from consumed input messages to output
// messages: for every unique fbuf, the outputs must end up holding exactly
// one reference each. pre lists references the caller already owns
// (freshly allocated data fbufs carry their allocator reference).
func (c *Ctx) rebalance(pre []*core.Fbuf, inputs, outputs []*Msg) error {
	refs := c.refs[:0]
	for _, f := range pre {
		refs = append(refs, ref{f: f, have: 1})
	}
	for _, in := range inputs {
		if in.consumed {
			return ErrConsumed
		}
		for _, f := range in.fbufs {
			refs = append(refs, ref{f: f, have: 1})
		}
	}
	for _, out := range outputs {
		for _, f := range out.fbufs {
			refs = append(refs, ref{f: f, need: 1})
		}
	}
	c.refs = refs
	return c.apply(refs, inputs)
}

// apply settles a reference balance and consumes the inputs. Lines for the
// same fbuf are summed; each fbuf then takes need-have new references or
// drops have-need. Ref-count ops emit trace events and charge the simulated
// clock, so they run in region-VA order, the stable identity of an fbuf
// within one manager.
func (c *Ctx) apply(refs []ref, inputs []*Msg) error {
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
		in.consumed = true
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
	segs := carve(&c.segSlab, listSlabLen, k)
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
	segs := carve(&c.segSlab, listSlabLen, k)
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
	var segs []Seg
	if n > 0 {
		segs = append(carve(&c.segSlab, listSlabLen, 1), Seg{F: f, VA: f.Base + vm.VA(off), N: n})
	}
	return c.finish([]*core.Fbuf{f}, segs)
}

// Join concatenates a then b, consuming both. In integrated mode this
// writes a single pair node referencing the two existing DAG roots.
//
// The result takes over a's segment and fbuf arrays and appends b's, and
// every fbuf it keeps in a's place keeps a's reference. So only b's side
// enters the balance handed to apply: b's references, the fbufs b adds to
// the result, and the few of a's that the result moves or drops.
// Left-folding n fragments (IP reassembly) therefore does O(n) work.
//
// Join(m, m) would consume m twice: it fails with ErrConsumed and leaves m
// as it was.
func (c *Ctx) Join(a, b *Msg) (*Msg, error) {
	if a.consumed || b.consumed || a == b {
		return nil, ErrConsumed
	}
	length := a.length + b.length
	var root vm.VA
	var node *core.Fbuf
	if c.integrated {
		// Keep referencing the operands' node fbufs: their DAGs are
		// now our subtrees.
		var err error
		if root, node, err = c.joinRoot(a.rootVA, b.rootVA, length); err != nil {
			return nil, err
		}
	}
	al, an := a.layout(&c.lists[0])
	bl, bn := b.layout(&c.lists[1])
	aData, aNodes := al[:an], al[an:]
	refs, added := c.refs[:0], c.added[:0]
	for _, f := range b.fbufs {
		refs = append(refs, ref{f: f, have: 1})
	}
	if a.ndata < 0 {
		// Data an Opened view's domain was not granted.
		for _, f := range aData {
			if !slices.Contains(a.fbufs, f) {
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
	if err := c.apply(refs, []*Msg{a, b}); err != nil {
		return nil, err
	}
	// a is consumed: its carves are the result's to extend in place
	// while they have room. Past that, the lists move to carves twice
	// their length, so a left fold copies each entry amortised O(1)
	// times.
	m := c.newMsg()
	*m = Msg{mgr: c.Mgr, integrated: c.integrated, rootVA: root, length: length, ndata: an + nNew}
	segs := a.segs
	if n := len(a.segs) + len(b.segs); n > cap(segs) {
		segs = append(carve(&c.segSlab, listSlabLen, 2*n), a.segs...)
	}
	m.segs = append(segs, b.segs...)
	fbufs := al
	if n := len(al) + len(added); a.ndata < 0 || n > cap(fbufs) {
		// An Opened view's layout is Ctx scratch.
		fbufs = append(carve(&c.fbufSlab, listSlabLen, 2*n), al...)
	}
	fbufs = slices.Insert(fbufs, an, added[:nNew]...)
	kept := slices.DeleteFunc(fbufs[m.ndata:], moved)
	m.fbufs = append(fbufs[:m.ndata+len(kept)], added[nNew:]...)
	return m, nil
}

// Split divides the message at byte offset off, consuming it and returning
// the two halves. Data is never copied: boundary-crossing leaves are
// re-described by offset/length, exactly as the paper prescribes for IP
// fragmentation.
//
// Like Join, the second half takes over m's segment and fbuf arrays when
// m's layout allows (see keep), so cutting n fragments off a message
// copies each fragment's entries, not the remainder's.
func (c *Ctx) Split(m *Msg, off int) (*Msg, *Msg, error) {
	if m.consumed {
		return nil, nil, ErrConsumed
	}
	if off < 0 || off > m.length {
		return nil, nil, fmt.Errorf("%w: split at %d of %d", ErrRange, off, m.length)
	}
	a, err := c.fromSegs(c.sliceSegs(m.segs, 0, off))
	if err != nil {
		return nil, nil, err
	}
	if k, ok := m.cut(off); ok {
		b, err := c.keep(m, k, a)
		if err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	b, err := c.fromSegs(c.sliceSegs(m.segs, off, m.length-off))
	if err != nil {
		return nil, nil, err
	}
	if err := c.rebalance(nil, []*Msg{m}, []*Msg{a, b}); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// ClipHead drops the first n bytes (popping a protocol header), consuming
// m. The result takes over m's lists as Split's second half does.
func (c *Ctx) ClipHead(m *Msg, n int) (*Msg, error) {
	if m.consumed {
		return nil, ErrConsumed
	}
	if n < 0 || n > m.length {
		return nil, fmt.Errorf("%w: clip %d of %d", ErrRange, n, m.length)
	}
	if k, ok := m.cut(n); ok {
		return c.keep(m, k, nil)
	}
	out, err := c.fromSegs(c.sliceSegs(m.segs, n, m.length-n))
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(nil, []*Msg{m}, []*Msg{out}); err != nil {
		return nil, err
	}
	return out, nil
}

// cut is where an edit divides a message: its tail, the bytes from off
// on, starts d bytes into segment i. The tail's data fbufs are
// m.fbufs[jb:m.ndata]; shared reports that the head holds the first of
// them too.
type cut struct {
	off, i, d, jb int
	shared        bool
}

// cut locates byte off of m and reports whether the tail may take over
// m's lists: m is a built message, no segment lacks its fbuf, and from
// the boundary on each data fbuf backs one run of segments, in list
// order. Then only the boundary fbuf can back segments on both sides.
// Join(m, Clone(m)) builds an X,Y,X layout that fails the test, as do
// Opened views, whose fbufs are in traversal order.
func (m *Msg) cut(off int) (cut, bool) {
	k := cut{off: off}
	if m.ndata < 0 {
		return k, false
	}
	pos := 0
	for k.i < len(m.segs) && pos+m.segs[k.i].N <= off {
		pos += m.segs[k.i].N
		k.i++
	}
	k.d = off - pos
	head := m.segs[:k.i]
	if k.d > 0 {
		head = m.segs[:k.i+1]
	}
	// A built message lists its data fbufs in order of first use, so
	// each segment's fbuf is the next unmet one or one met before.
	data := m.fbufs[:m.ndata]
	met := 0
	var last *core.Fbuf
	for _, s := range head {
		if s.F == nil {
			return k, false
		}
		if met < len(data) && s.F == data[met] {
			met++
		}
		last = s.F
	}
	k.jb = met
	for j, s := range m.segs[k.i:] {
		switch {
		case s.F == nil:
			return k, false
		case s.F == last:
			if j == 0 {
				// The boundary fbuf: both halves hold it, and it
				// must be the last one the head met.
				if met == 0 || data[met-1] != last {
					return k, false
				}
				k.jb, k.shared = met-1, true
			}
		case met < len(data) && s.F == data[met]:
			met++
		default:
			return k, false
		}
		last = s.F
	}
	return k, met == len(data)
}

// keep builds the tail of an edit, m's bytes from cut k on, over m's own
// lists: the boundary segment is trimmed in place and m.fbufs[k.jb:]
// becomes the tail's fbuf list. head, when not nil, is the edit's other
// output, already built. Every data fbuf but the boundary one stays with
// one side and keeps m's reference, so only the fbufs whose counts move
// enter the balance: m's node fbufs, head's and the tail's, the boundary
// fbuf when head holds it too, and, with no head, the data fbufs the edit
// drops. m is consumed when the balance is applied; a failure before
// that leaves it as it was.
func (c *Ctx) keep(m *Msg, k cut, head *Msg) (*Msg, error) {
	segs := m.segs[k.i:]
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
	data := m.fbufs[k.jb:m.ndata]
	refs, added := c.refs[:0], c.added[:0]
	for _, f := range m.fbufs[m.ndata:] {
		refs = append(refs, ref{f: f, have: 1})
	}
	if head == nil {
		for _, f := range m.fbufs[:k.jb] {
			refs = append(refs, ref{f: f, have: 1})
		}
	} else {
		for _, f := range head.fbufs[head.ndata:] {
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
	if err := c.apply(refs, []*Msg{m}); err != nil {
		return fail(err)
	}
	fbufs := data
	if n := len(data) + len(added); n > cap(fbufs) {
		fbufs = append(carve(&c.fbufSlab, listSlabLen, n), data...)
	}
	t := c.newMsg()
	*t = Msg{
		mgr:        c.Mgr,
		integrated: c.integrated,
		rootVA:     root,
		segs:       segs,
		fbufs:      append(fbufs, added...),
		ndata:      len(data),
		length:     m.length - k.off,
	}
	c.validate(t)
	return t, nil
}

// ClipTail drops the last n bytes, consuming m.
func (c *Ctx) ClipTail(m *Msg, n int) (*Msg, error) {
	if m.consumed {
		return nil, ErrConsumed
	}
	if n < 0 || n > m.length {
		return nil, fmt.Errorf("%w: clip %d of %d", ErrRange, n, m.length)
	}
	out, err := c.fromSegs(c.sliceSegs(m.segs, 0, m.length-n))
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(nil, []*Msg{m}, []*Msg{out}); err != nil {
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

// Pop reads and strips an n-byte header, consuming m. The header is carved
// from the Ctx and stays the caller's.
func (c *Ctx) Pop(m *Msg, n int) ([]byte, *Msg, error) {
	if m.consumed {
		return nil, nil, ErrConsumed
	}
	hdr := carve(&c.hdrSlab, hdrSlabLen, n)[:n]
	if err := m.Read(c.Dom, 0, hdr); err != nil {
		return nil, nil, err
	}
	rest, err := c.ClipHead(m, n)
	if err != nil {
		return nil, nil, err
	}
	return hdr, rest, nil
}

// fromSegs builds a message over a segment list carved from the Ctx,
// writing a fresh DAG chain in integrated mode. Reference accounting is
// the caller's job (rebalance).
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
	m := c.newMsg()
	*m = Msg{
		mgr:        c.Mgr,
		integrated: c.integrated,
		rootVA:     root,
		segs:       segs,
		fbufs:      append(carve(&c.fbufSlab, listSlabLen, len(fbufs)), fbufs...),
		ndata:      ndata,
		length:     totalLen(segs),
	}
	c.validate(m)
	return m, nil
}

// finish completes message construction from freshly allocated fbufs.
func (c *Ctx) finish(pre []*core.Fbuf, segs []Seg) (*Msg, error) {
	m, err := c.fromSegs(segs)
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(pre, nil, []*Msg{m}); err != nil {
		return nil, err
	}
	return m, nil
}

// sliceSegs returns the sub-segment-list covering [off, off+n), carved
// from the Ctx.
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
	return append(carve(&c.segSlab, listSlabLen, len(out)), out...)
}
