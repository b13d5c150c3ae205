// Package aggregate implements the buffer-aggregation abstraction layered
// on fbufs: the x-kernel-style immutable message, represented as a directed
// acyclic graph over buffer segments (paper Figure 2). It provides the
// standard editing operations — join, split, clip, push/pop header — all of
// which allocate new nodes rather than mutating data, preserving
// immutability.
//
// Two storage modes are supported, matching the paper's design progression:
//
//   - Private (section 3.1 baseline): interior structure lives in memory
//     private to each domain. Transferring a message means generating the
//     list of fbufs, passing per-fbuf descriptors through the kernel, and
//     rebuilding the aggregate on the receiving side.
//   - Integrated (section 3.2.3): the entire aggregate object, interior
//     nodes included, is stored *inside* fbufs. Because the fbuf region is
//     mapped at the same virtual address everywhere, no pointer translation
//     is needed: a transfer passes a single reference to the DAG root.
//
// Integrated mode composes with volatile fbufs via the section 3.2.4
// safeguards, implemented in Open: range checks on every DAG pointer, cycle
// detection during traversal, and tolerance of unpermitted reads (which the
// VM satisfies with an empty-leaf page, making invalid references appear as
// the absence of data).
package aggregate

import (
	"errors"
	"fmt"
	"slices"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/vm"
)

// Seg is one contiguous run of message bytes inside an fbuf.
type Seg struct {
	F  *core.Fbuf // nil when the bytes are unreachable (volatile absence)
	VA vm.VA      // absolute virtual address of the first byte
	N  int
}

// Msg is a handle on an immutable message: a sequence of segments plus,
// in integrated mode, the encoded DAG root that represents it in shared
// fbuf memory. A Msg is a *view held by one domain at a time*; editing
// operations consume their operands (use-after-consume is reported as an
// error).
//
// The handle is one pointer to a slot, which holds the message's state.
// Consuming the message clears the handle, and its slot goes back to the
// Ctx that created it, whose next message reuses the slot and its lists,
// as a freed fbuf goes back to its path's free list. Handles are never
// handed out again, so a stale handle reports ErrConsumed from every
// method that returns an error, and zero values from the accessors, even
// once its slot holds another message.
type Msg struct {
	s *slot // nil once the message is consumed
}

// slot holds one message's state. Its lists start in the inline arrays,
// which hold a header pushed onto a one-fbuf message (two data fbufs and
// their node fbufs), and keep the capacity they grow to from one message
// to the next.
type slot struct {
	mgr        *core.Manager
	integrated bool
	rootVA     vm.VA // 0 in private mode
	segs       []Seg
	fbufs      []*core.Fbuf // unique fbufs this message holds references to
	// ndata counts the leading fbufs that back segments, in segment
	// order; the rest are DAG node fbufs. It is -1 for an Opened view,
	// whose fbufs are in traversal order (see layout).
	ndata  int
	length int
	// home is the Ctx whose pool the slot goes back to; nil for a view
	// built without a Ctx, whose slot is never pooled.
	home    *Ctx
	segBuf  [2]Seg
	fbufBuf [4]*core.Fbuf
}

// newSlot returns an empty slot whose lists start in its inline arrays.
func newSlot(home *Ctx) *slot {
	s := &slot{home: home}
	s.segs, s.fbufs = s.segBuf[:0], s.fbufBuf[:0]
	return s
}

// loose is a message built without a Ctx: its handle and its slot in one
// object. The slot has no home and is never pooled, so the handle is never
// reused either.
type loose struct {
	h Msg
	s slot
}

// newLoose returns a handle on a new slot with no home.
func newLoose() *Msg {
	l := new(loose)
	l.s.segs, l.s.fbufs = l.s.segBuf[:0], l.s.fbufBuf[:0]
	l.h.s = &l.s
	return &l.h
}

// release sends s back to its home pool, its lists emptied but keeping
// their capacity, once its message is consumed and no edit's result took
// it over.
func (s *slot) release() {
	c := s.home
	if c == nil {
		return
	}
	if c.Mgr.SanitizerEnabled() {
		s.poison()
	}
	s.segs, s.fbufs = s.segs[:0], s.fbufs[:0]
	c.pool = append(c.pool, s)
}

// copyFrom makes s hold o's message, its lists copied into s's.
func (s *slot) copyFrom(o *slot) {
	s.mgr, s.integrated, s.rootVA, s.ndata, s.length = o.mgr, o.integrated, o.rootVA, o.ndata, o.length
	s.segs = append(s.segs[:0], o.segs...)
	s.fbufs = append(s.fbufs[:0], o.fbufs...)
}

// Errors.
var (
	ErrConsumed = errors.New("aggregate: message already consumed")
	ErrRange    = errors.New("aggregate: offset out of range")
)

// spent is what the accessors read through a consumed handle.
var spent slot

// state returns m's slot, or an empty one once m is consumed.
func (m *Msg) state() *slot {
	if m.s == nil {
		return &spent
	}
	return m.s
}

// Len returns the message length in bytes.
func (m *Msg) Len() int { return m.state().length }

// RootVA returns the DAG root address (integrated mode; 0 otherwise).
func (m *Msg) RootVA() vm.VA { return m.state().rootVA }

// Integrated reports the storage mode.
func (m *Msg) Integrated() bool { return m.state().integrated }

// Segs returns the message's segment list (read-only use). The list is the
// slot's: once the message is consumed, an edit's result may rewrite it in
// place (Join, Split, ClipHead and Pop take the slot over), or the slot
// goes back to its Ctx and the next message there overwrites it. Copy it
// to keep it.
func (m *Msg) Segs() []Seg { return m.state().segs }

// Fbufs returns the unique fbufs the message references — the list a
// non-integrated transfer must marshal ("generate a list of fbufs from the
// aggregate object", step 2a). It is the slot's, as Segs is.
func (m *Msg) Fbufs() []*core.Fbuf { return m.state().fbufs }

// NumFbufs returns the descriptor count an IPC transfer of this message
// carries: the fbuf list in private mode, a single root reference in
// integrated mode.
func (m *Msg) NumFbufs() int {
	s := m.state()
	if s.integrated {
		return 1
	}
	return len(s.fbufs)
}

// Read copies n=len(buf) bytes starting at off into buf, acting as domain
// d. Unreachable segments (volatile absence-of-data) read as zeros.
func (m *Msg) Read(d *domain.Domain, off int, buf []byte) error {
	s := m.s
	if s == nil {
		return ErrConsumed
	}
	if off < 0 || off+len(buf) > s.length {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrRange, off, off+len(buf), s.length)
	}
	for _, sg := range s.segs {
		if len(buf) == 0 {
			break
		}
		if off >= sg.N {
			off -= sg.N
			continue
		}
		n := sg.N - off
		if n > len(buf) {
			n = len(buf)
		}
		if err := d.AS.Read(sg.VA+vm.VA(off), buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		off = 0
	}
	return nil
}

// ReadAll returns the full message contents.
func (m *Msg) ReadAll(d *domain.Domain) ([]byte, error) {
	buf := make([]byte, m.Len())
	if err := m.Read(d, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Touch reads one word in each page the message occupies — the dummy-
// protocol consumption pattern from the paper's experiments.
func (m *Msg) Touch(d *domain.Domain) error {
	s := m.s
	if s == nil {
		return ErrConsumed
	}
	var w [4]byte
	for _, sg := range s.segs {
		for o := 0; o < sg.N; o += 4096 {
			n := 4
			if sg.N-o < 4 {
				n = sg.N - o
			}
			if err := d.AS.Read(sg.VA+vm.VA(o), w[:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Transfer passes every fbuf of the message from one domain to another with
// copy semantics (the sender keeps its references; Free them explicitly).
// In the cached steady state this performs no mapping work.
func (m *Msg) Transfer(from, to *domain.Domain) error {
	s := m.s
	if s == nil {
		return ErrConsumed
	}
	for _, f := range s.fbufs {
		if err := s.mgr.Transfer(f, from, to); err != nil {
			return err
		}
	}
	return nil
}

// Secure raises protection on all the message's fbufs at a receiver's
// request (no-ops for trusted originators).
func (m *Msg) Secure(d *domain.Domain) error {
	s := m.s
	if s == nil {
		return ErrConsumed
	}
	for _, f := range s.fbufs {
		if err := s.mgr.Secure(f, d); err != nil {
			return err
		}
	}
	return nil
}

// Free releases domain d's references to all the message's fbufs and
// consumes the message view; its slot goes back to its Ctx.
func (m *Msg) Free(d *domain.Domain) error {
	s := m.s
	if s == nil {
		return ErrConsumed
	}
	m.s = nil
	var err error
	for _, f := range s.fbufs {
		if err = s.mgr.Free(f, d); err != nil {
			break
		}
	}
	s.release()
	return err
}

// ViewFor returns the receiving domain's own view of a message whose fbufs
// have just been transferred to it — the "rebuild the aggregate object on
// the receiving side" step (3c) of a non-integrated transfer. The view
// covers the same segments and owns the references the transfer granted;
// the sender's view is untouched and must still be freed by the sender.
// The view's slot has no home.
func (m *Msg) ViewFor(d *domain.Domain) (*Msg, error) {
	s := m.s
	if s == nil {
		return nil, ErrConsumed
	}
	for _, f := range s.fbufs {
		if !f.HeldBy(d) {
			return nil, fmt.Errorf("aggregate: %w: fbuf %#x not transferred to %s",
				core.ErrNotHolder, uint64(f.Base), d)
		}
	}
	v := newLoose()
	v.s.copyFrom(s)
	return v, nil
}

// Clone returns an independent view of the same bytes for the same holder,
// duplicating the fbuf references (used by retransmission buffers). The
// clone's slot has no home.
func (m *Msg) Clone(d *domain.Domain) (*Msg, error) {
	s := m.s
	if s == nil {
		return nil, ErrConsumed
	}
	for _, f := range s.fbufs {
		if err := s.mgr.DupRef(f, d); err != nil {
			return nil, err
		}
	}
	c := newLoose()
	c.s.copyFrom(s)
	return c, nil
}

// layout returns s's fbufs as its data fbufs (every fbuf its segments
// reference, once each, in segment order) followed by its node fbufs, and
// the number of data fbufs. A built message keeps its fbufs in that order.
// An Opened view keeps the fbufs its domain holds in traversal order, so
// its layout is gathered afresh into *scratch and may name data fbufs it
// does not hold.
func (s *slot) layout(scratch *[]*core.Fbuf) ([]*core.Fbuf, int) {
	if s.ndata >= 0 {
		return s.fbufs, s.ndata
	}
	l := appendData((*scratch)[:0], s.segs)
	n := len(l)
	for _, f := range s.fbufs {
		if !slices.Contains(l[:n], f) {
			l = append(l, f)
		}
	}
	*scratch = l
	return l, n
}

// appendData appends the fbufs behind segs to dst, each once, in segment
// order.
func appendData(dst []*core.Fbuf, segs []Seg) []*core.Fbuf {
	for _, s := range segs {
		if s.F != nil && !slices.Contains(dst, s.F) {
			dst = append(dst, s.F)
		}
	}
	return dst
}

func totalLen(segs []Seg) int {
	n := 0
	for _, s := range segs {
		n += s.N
	}
	return n
}
