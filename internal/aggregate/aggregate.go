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

// Msg is an immutable message: a sequence of segments plus, in integrated
// mode, the encoded DAG root that represents it in shared fbuf memory.
// A Msg is a *view held by one domain at a time*; editing operations consume
// their operands (use-after-consume is reported as an error).
type Msg struct {
	mgr        *core.Manager
	integrated bool
	rootVA     vm.VA // 0 in private mode
	segs       []Seg
	fbufs      []*core.Fbuf // unique fbufs this message holds references to
	// ndata counts the leading fbufs that back segments, in segment
	// order; the rest are DAG node fbufs. It is -1 for an Opened view,
	// whose fbufs are in traversal order (see layout).
	ndata    int
	length   int
	consumed bool
}

// Errors.
var (
	ErrConsumed = errors.New("aggregate: message already consumed")
	ErrRange    = errors.New("aggregate: offset out of range")
)

// Len returns the message length in bytes.
func (m *Msg) Len() int { return m.length }

// RootVA returns the DAG root address (integrated mode; 0 otherwise).
func (m *Msg) RootVA() vm.VA { return m.rootVA }

// Integrated reports the storage mode.
func (m *Msg) Integrated() bool { return m.integrated }

// Segs returns the message's segment list (read-only use). Once an edit
// has consumed the message, its lists belong to the edit's result: Join,
// Split, ClipHead and Pop may reuse and rewrite them in place.
func (m *Msg) Segs() []Seg { return m.segs }

// Fbufs returns the unique fbufs the message references — the list a
// non-integrated transfer must marshal ("generate a list of fbufs from the
// aggregate object", step 2a).
func (m *Msg) Fbufs() []*core.Fbuf { return m.fbufs }

// NumFbufs returns the descriptor count an IPC transfer of this message
// carries: the fbuf list in private mode, a single root reference in
// integrated mode.
func (m *Msg) NumFbufs() int {
	if m.integrated {
		return 1
	}
	return len(m.fbufs)
}

// Read copies n=len(buf) bytes starting at off into buf, acting as domain
// d. Unreachable segments (volatile absence-of-data) read as zeros.
func (m *Msg) Read(d *domain.Domain, off int, buf []byte) error {
	if m.consumed {
		return ErrConsumed
	}
	if off < 0 || off+len(buf) > m.length {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrRange, off, off+len(buf), m.length)
	}
	for _, s := range m.segs {
		if len(buf) == 0 {
			break
		}
		if off >= s.N {
			off -= s.N
			continue
		}
		n := s.N - off
		if n > len(buf) {
			n = len(buf)
		}
		if err := d.AS.Read(s.VA+vm.VA(off), buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		off = 0
	}
	return nil
}

// ReadAll returns the full message contents.
func (m *Msg) ReadAll(d *domain.Domain) ([]byte, error) {
	buf := make([]byte, m.length)
	if err := m.Read(d, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Touch reads one word in each page the message occupies — the dummy-
// protocol consumption pattern from the paper's experiments.
func (m *Msg) Touch(d *domain.Domain) error {
	if m.consumed {
		return ErrConsumed
	}
	var w [4]byte
	for _, s := range m.segs {
		for o := 0; o < s.N; o += 4096 {
			n := 4
			if s.N-o < 4 {
				n = s.N - o
			}
			if err := d.AS.Read(s.VA+vm.VA(o), w[:n]); err != nil {
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
	if m.consumed {
		return ErrConsumed
	}
	for _, f := range m.fbufs {
		if err := m.mgr.Transfer(f, from, to); err != nil {
			return err
		}
	}
	return nil
}

// Secure raises protection on all the message's fbufs at a receiver's
// request (no-ops for trusted originators).
func (m *Msg) Secure(d *domain.Domain) error {
	if m.consumed {
		return ErrConsumed
	}
	for _, f := range m.fbufs {
		if err := m.mgr.Secure(f, d); err != nil {
			return err
		}
	}
	return nil
}

// Free releases domain d's references to all the message's fbufs and
// consumes the message view.
func (m *Msg) Free(d *domain.Domain) error {
	if m.consumed {
		return ErrConsumed
	}
	m.consumed = true
	for _, f := range m.fbufs {
		if err := m.mgr.Free(f, d); err != nil {
			return err
		}
	}
	return nil
}

// ViewFor returns the receiving domain's own view of a message whose fbufs
// have just been transferred to it — the "rebuild the aggregate object on
// the receiving side" step (3c) of a non-integrated transfer. The view
// covers the same segments and owns the references the transfer granted;
// the sender's view is untouched and must still be freed by the sender.
func (m *Msg) ViewFor(d *domain.Domain) (*Msg, error) {
	if m.consumed {
		return nil, ErrConsumed
	}
	v := &Msg{
		mgr:        m.mgr,
		integrated: m.integrated,
		rootVA:     m.rootVA,
		segs:       append([]Seg(nil), m.segs...),
		ndata:      m.ndata,
		length:     m.length,
	}
	for _, f := range m.fbufs {
		if !f.HeldBy(d) {
			return nil, fmt.Errorf("aggregate: %w: fbuf %#x not transferred to %s",
				core.ErrNotHolder, uint64(f.Base), d)
		}
		v.fbufs = append(v.fbufs, f)
	}
	return v, nil
}

// Clone returns an independent view of the same bytes for the same holder,
// duplicating the fbuf references (used by retransmission buffers).
func (m *Msg) Clone(d *domain.Domain) (*Msg, error) {
	if m.consumed {
		return nil, ErrConsumed
	}
	for _, f := range m.fbufs {
		if err := m.mgr.DupRef(f, d); err != nil {
			return nil, err
		}
	}
	c := *m
	c.segs = append([]Seg(nil), m.segs...)
	c.fbufs = append([]*core.Fbuf(nil), m.fbufs...)
	return &c, nil
}

// layout returns m's fbufs as its data fbufs (every fbuf its segments
// reference, once each, in segment order) followed by its node fbufs, and
// the number of data fbufs. A built message keeps its fbufs in that order.
// An Opened view keeps the fbufs its domain holds in traversal order, so
// its layout is gathered afresh into *scratch and may name data fbufs it
// does not hold.
func (m *Msg) layout(scratch *[]*core.Fbuf) ([]*core.Fbuf, int) {
	if m.ndata >= 0 {
		return m.fbufs, m.ndata
	}
	l := appendData((*scratch)[:0], m.segs)
	n := len(l)
	for _, f := range m.fbufs {
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
