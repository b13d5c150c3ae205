package aggregate

import (
	"encoding/binary"
	"fmt"
	"slices"

	"fbufs/internal/core"
	"fbufs/internal/machine"
	"fbufs/internal/vm"
)

// fbsan hook: when the core sanitizer is enabled, every Msg build
// re-validates the aggregate invariants — segment ranges inside their
// fbufs, and (integrated mode) the just-written DAG's range, alignment,
// cycle, and node-count rules. Validation reads node bytes straight from
// physical frames, charging zero simulated time, so enabling fbsan never
// perturbs the run it watches.

// validate reports m to the sanitizer, when it is on, if m breaks the
// aggregate invariants.
func (c *Ctx) validate(m *Msg) {
	if s := c.Mgr.Sanitizer(); s != nil {
		if err := c.validateMsg(m); err != nil {
			s.Violation("aggregate msg build: %v", err)
		}
	}
}

// validateMsg checks a freshly built message. Returned errors are
// reported through the sanitizer's violation handler by the caller.
func (c *Ctx) validateMsg(m *Msg) error {
	total := 0
	for i, s := range m.segs {
		if s.N < 0 {
			return fmt.Errorf("seg %d has negative length %d", i, s.N)
		}
		total += s.N
		if s.F == nil {
			continue // volatile absence-of-data: legitimately unreachable
		}
		if s.F.State() != core.StateLive {
			return fmt.Errorf("seg %d references %s fbuf %#x", i, s.F.State(), uint64(s.F.Base))
		}
		if s.N > 0 && (!s.F.Contains(s.VA) || !s.F.Contains(s.VA+vm.VA(s.N-1))) {
			return fmt.Errorf("seg %d [%#x,+%d) outside fbuf %#x of %d bytes",
				i, uint64(s.VA), s.N, uint64(s.F.Base), s.F.Size())
		}
	}
	if total != m.length {
		return fmt.Errorf("segment lengths sum to %d but message length is %d", total, m.length)
	}
	// Msg.cut relies on a built message listing its data fbufs in order of
	// first use.
	if data := appendData(nil, m.segs); m.ndata >= 0 && !slices.Equal(m.fbufs[:m.ndata], data) {
		return fmt.Errorf("data fbufs %v, want the segments' %v", m.fbufs[:m.ndata], data)
	}
	if m.integrated {
		v := &rawWalker{mgr: c.Mgr, onPath: map[vm.VA]bool{}}
		if err := v.walk(m.rootVA); err != nil {
			return fmt.Errorf("built DAG invalid: %w", err)
		}
	}
	return nil
}

// rawWalker mirrors the receiver-side walker's range/alignment/cycle/
// count checks but reads node bytes from physical frames directly —
// no address-space access, no simulated cost, no permission dependence.
type rawWalker struct {
	mgr    *core.Manager
	onPath map[vm.VA]bool
	count  int
}

func (w *rawWalker) walk(va vm.VA) error {
	if !w.mgr.InRegion(va) {
		return fmt.Errorf("%w: node %#x", ErrBadPointer, uint64(va))
	}
	if va%nodeSize != 0 {
		return fmt.Errorf("%w: unaligned node %#x", ErrBadNode, uint64(va))
	}
	if w.onPath[va] {
		return fmt.Errorf("%w via node %#x", ErrCycle, uint64(va))
	}
	w.count++
	if w.count > maxNodes {
		return ErrTooLarge
	}
	w.onPath[va] = true
	defer delete(w.onPath, va)

	enc, ok := w.readNode(va)
	if !ok {
		return nil // unbacked page: reads as the empty leaf
	}
	kind := enc[0]
	n := int(binary.LittleEndian.Uint32(enc[4:]))
	a := vm.VA(binary.LittleEndian.Uint64(enc[8:]))
	b := vm.VA(binary.LittleEndian.Uint64(enc[16:]))
	switch kind {
	case kindEmpty:
		return nil
	case kindLeaf:
		if n == 0 {
			return nil
		}
		if n < 0 || n > machine.PageSize*core.DefaultChunkPages {
			return fmt.Errorf("%w: leaf length %d", ErrBadNode, n)
		}
		if !w.mgr.InRegion(a) || !w.mgr.InRegion(a+vm.VA(n-1)) {
			return fmt.Errorf("%w: leaf data [%#x,+%d)", ErrBadPointer, uint64(a), n)
		}
		return nil
	case kindPair:
		if err := w.walk(a); err != nil {
			return err
		}
		return w.walk(b)
	default:
		return fmt.Errorf("%w: kind %d at %#x", ErrBadNode, kind, uint64(va))
	}
}

// readNode fetches one 32-byte node from the frame backing va (nodes are
// 32-aligned and never cross a page boundary). Missing fbuf or
// unpopulated page reads as absent.
func (w *rawWalker) readNode(va vm.VA) ([nodeSize]byte, bool) {
	var enc [nodeSize]byte
	f := w.mgr.FbufAt(va)
	if f == nil {
		return enc, false
	}
	page := int(va-f.Base) / machine.PageSize
	fn := f.FrameAt(page)
	if fn < 0 {
		return enc, false
	}
	w.mgr.Sys.Mem.Read(fn, int(va-f.Base)%machine.PageSize, enc[:])
	return enc, true
}
