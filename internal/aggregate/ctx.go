package aggregate

import (
	"fmt"
	"sort"

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

	// Deterministic per-Ctx scratch state, reused across operations so the
	// steady-state editing path stays allocation-free (a Ctx belongs to one
	// layer in one domain; nothing here is shared). Not sync.Pool: pool
	// behavior must not depend on goroutine identity or GC timing.
	have, need map[*core.Fbuf]int
	sortBuf    []*core.Fbuf
	batchBuf   []*core.Fbuf
	preBuf     map[*core.Fbuf]int
	seenBuf    map[*core.Fbuf]bool
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

// takePre returns the Ctx's scratch pre-reference map (cleared), used by
// the message constructors to seed rebalance with allocator references.
func (c *Ctx) takePre() map[*core.Fbuf]int {
	if c.preBuf == nil {
		c.preBuf = map[*core.Fbuf]int{}
	} else {
		clear(c.preBuf)
	}
	return c.preBuf
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
// one reference each. preHave seeds references the caller already owns
// (freshly allocated data fbufs carry their allocator reference).
func (c *Ctx) rebalance(preHave map[*core.Fbuf]int, inputs, outputs []*Msg) error {
	if c.have == nil {
		c.have = map[*core.Fbuf]int{}
		c.need = map[*core.Fbuf]int{}
	}
	have, need := c.have, c.need
	defer func() {
		clear(have)
		clear(need)
	}()
	for f, n := range preHave {
		have[f] += n
	}
	for _, in := range inputs {
		if in.consumed {
			return ErrConsumed
		}
		for _, f := range in.fbufs {
			have[f]++
		}
	}
	for _, out := range outputs {
		for _, f := range out.fbufs {
			need[f]++
		}
	}
	// Take new references first (every fbuf needing extras has >=1 live
	// reference: an input's, the preHave allocator's, or the arena's).
	// Iterate in VA order: ref-count ops emit trace events and charge the
	// simulated clock, and map order over *Fbuf keys would leak Go's map
	// randomization into otherwise deterministic runs.
	for _, f := range c.sortedFbufs(need) {
		for i := have[f]; i < need[f]; i++ {
			if err := c.Mgr.DupRef(f, c.Dom); err != nil {
				return fmt.Errorf("aggregate: rebalance dupref: %w", err)
			}
		}
	}
	for _, in := range inputs {
		in.consumed = true
	}
	for _, f := range c.sortedFbufs(have) {
		for i := need[f]; i < have[f]; i++ {
			if err := c.Mgr.Free(f, c.Dom); err != nil {
				return fmt.Errorf("aggregate: rebalance free: %w", err)
			}
		}
	}
	c.endOp()
	return nil
}

// sortedFbufs returns the map's keys ordered by region VA, the stable
// identity of an fbuf within one manager. The returned slice is the Ctx's
// scratch buffer: valid until the next call.
func (c *Ctx) sortedFbufs(m map[*core.Fbuf]int) []*core.Fbuf {
	fs := c.sortBuf[:0]
	for f := range m {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Base < fs[j].Base })
	c.sortBuf = fs
	return fs
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
	var segs []Seg
	pre := c.takePre()
	for i, f := range bufs {
		pre[f] = 1
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
	return c.finish(pre, nil, segs)
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
	var segs []Seg
	pre := c.takePre()
	for i, f := range bufs {
		pre[f] = 1
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
	return c.finish(pre, nil, segs)
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
	pre := c.takePre()
	pre[f] = 1
	var segs []Seg
	if n > 0 {
		segs = []Seg{{F: f, VA: f.Base + vm.VA(off), N: n}}
	}
	return c.finish(pre, nil, segs)
}

// Join concatenates a then b, consuming both. In integrated mode this
// writes a single pair node referencing the two existing DAG roots.
func (c *Ctx) Join(a, b *Msg) (*Msg, error) {
	if a.consumed || b.consumed {
		return nil, ErrConsumed
	}
	m := &Msg{mgr: c.Mgr, integrated: c.integrated}
	m.segs = append(append(m.segs, a.segs...), b.segs...)
	m.length = a.length + b.length
	m.fbufs = c.uniqueFbufsInto(m.fbufs, m.segs)
	if c.integrated {
		// Keep referencing the operands' node fbufs: their DAGs are
		// now our subtrees.
		root, nodeFbufs, err := c.joinRoot(a.rootVA, b.rootVA, m.length)
		if err != nil {
			return nil, err
		}
		m.rootVA = root
		m.fbufs = mergeFbufSets(m.fbufs, nodeFbufsOf(a), nodeFbufsOf(b), nodeFbufs)
	}
	if err := c.rebalance(nil, []*Msg{a, b}, []*Msg{m}); err != nil {
		return nil, err
	}
	return m, nil
}

// Split divides the message at byte offset off, consuming it and returning
// the two halves. Data is never copied: boundary-crossing leaves are
// re-described by offset/length, exactly as the paper prescribes for IP
// fragmentation.
func (c *Ctx) Split(m *Msg, off int) (*Msg, *Msg, error) {
	if m.consumed {
		return nil, nil, ErrConsumed
	}
	if off < 0 || off > m.length {
		return nil, nil, fmt.Errorf("%w: split at %d of %d", ErrRange, off, m.length)
	}
	s1 := sliceSegs(m.segs, 0, off)
	s2 := sliceSegs(m.segs, off, m.length-off)
	a, err := c.fromSegs(s1)
	if err != nil {
		return nil, nil, err
	}
	b, err := c.fromSegs(s2)
	if err != nil {
		return nil, nil, err
	}
	if err := c.rebalance(nil, []*Msg{m}, []*Msg{a, b}); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// ClipHead drops the first n bytes (popping a protocol header), consuming m.
func (c *Ctx) ClipHead(m *Msg, n int) (*Msg, error) {
	if m.consumed {
		return nil, ErrConsumed
	}
	if n < 0 || n > m.length {
		return nil, fmt.Errorf("%w: clip %d of %d", ErrRange, n, m.length)
	}
	out, err := c.fromSegs(sliceSegs(m.segs, n, m.length-n))
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(nil, []*Msg{m}, []*Msg{out}); err != nil {
		return nil, err
	}
	return out, nil
}

// ClipTail drops the last n bytes, consuming m.
func (c *Ctx) ClipTail(m *Msg, n int) (*Msg, error) {
	if m.consumed {
		return nil, ErrConsumed
	}
	if n < 0 || n > m.length {
		return nil, fmt.Errorf("%w: clip %d of %d", ErrRange, n, m.length)
	}
	out, err := c.fromSegs(sliceSegs(m.segs, 0, m.length-n))
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

// Pop reads and strips an n-byte header, consuming m.
func (c *Ctx) Pop(m *Msg, n int) ([]byte, *Msg, error) {
	if m.consumed {
		return nil, nil, ErrConsumed
	}
	hdr := make([]byte, n)
	if err := m.Read(c.Dom, 0, hdr); err != nil {
		return nil, nil, err
	}
	rest, err := c.ClipHead(m, n)
	if err != nil {
		return nil, nil, err
	}
	return hdr, rest, nil
}

// uniqueFbufsInto appends the deduplicated fbufs behind a segment list to
// dst, using the Ctx's scratch seen-set instead of allocating one per call.
func (c *Ctx) uniqueFbufsInto(dst []*core.Fbuf, segs []Seg) []*core.Fbuf {
	if c.seenBuf == nil {
		c.seenBuf = map[*core.Fbuf]bool{}
	} else {
		clear(c.seenBuf)
	}
	for _, s := range segs {
		if s.F != nil && !c.seenBuf[s.F] {
			c.seenBuf[s.F] = true
			dst = append(dst, s.F)
		}
	}
	return dst
}

// fromSegs builds a message over a segment list, writing a fresh DAG chain
// in integrated mode. Reference accounting is the caller's job (rebalance).
func (c *Ctx) fromSegs(segs []Seg) (*Msg, error) {
	m := &Msg{mgr: c.Mgr, integrated: c.integrated}
	m.segs = segs
	m.length = totalLen(segs)
	m.fbufs = c.uniqueFbufsInto(m.fbufs, segs)
	if c.integrated {
		root, nodeFbufs, err := c.buildRoot(segs, m.length)
		if err != nil {
			return nil, err
		}
		m.rootVA = root
		m.fbufs = mergeFbufSets(m.fbufs, nodeFbufs)
	}
	if s := c.Mgr.Sanitizer(); s != nil {
		if err := c.validateMsg(m); err != nil {
			s.Violation("aggregate msg build: %v", err)
		}
	}
	return m, nil
}

// finish completes message construction from freshly allocated fbufs.
func (c *Ctx) finish(pre map[*core.Fbuf]int, inputs []*Msg, segs []Seg) (*Msg, error) {
	m, err := c.fromSegs(segs)
	if err != nil {
		return nil, err
	}
	if err := c.rebalance(pre, inputs, []*Msg{m}); err != nil {
		return nil, err
	}
	return m, nil
}

// nodeFbufsOf extracts the fbufs in m's set that are not data fbufs — i.e.
// node-only fbufs that must stay referenced when roots are reused.
func nodeFbufsOf(m *Msg) []*core.Fbuf {
	data := map[*core.Fbuf]bool{}
	for _, s := range m.segs {
		if s.F != nil {
			data[s.F] = true
		}
	}
	var out []*core.Fbuf
	for _, f := range m.fbufs {
		if !data[f] {
			out = append(out, f)
		}
	}
	return out
}

// mergeFbufSets unions fbuf lists preserving order and uniqueness.
func mergeFbufSets(sets ...[]*core.Fbuf) []*core.Fbuf {
	var out []*core.Fbuf
	seen := map[*core.Fbuf]bool{}
	for _, set := range sets {
		for _, f := range set {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}
