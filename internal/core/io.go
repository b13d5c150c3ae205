package core

import (
	"fmt"
	"slices"

	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/vm"
)

// Write stores data into the fbuf at the given byte offset, acting as
// domain d. All protection checking happens in the simulated VM: a receiver
// or a secured originator faults exactly as the paper specifies.
func (f *Fbuf) Write(d *domain.Domain, off int, data []byte) error {
	if off < 0 || off+len(data) > f.Size() {
		return fmt.Errorf("core: write [%d,%d) outside fbuf of %d bytes", off, off+len(data), f.Size())
	}
	return d.AS.Write(f.Base+vm.VA(off), data)
}

// Read copies bytes out of the fbuf at the given offset, acting as d.
func (f *Fbuf) Read(d *domain.Domain, off int, buf []byte) error {
	if off < 0 || off+len(buf) > f.Size() {
		return fmt.Errorf("core: read [%d,%d) outside fbuf of %d bytes", off, off+len(buf), f.Size())
	}
	return d.AS.Read(f.Base+vm.VA(off), buf)
}

// TouchWrite writes one word in each page of the fbuf — the originator-side
// access pattern of the paper's first experiment ("writes one word in each
// VM page of the associated fbuf").
func (f *Fbuf) TouchWrite(d *domain.Domain, word uint32) error {
	for i := 0; i < f.Pages; i++ {
		if err := d.AS.TouchWrite(f.Base+vm.VA(i*machine.PageSize), word); err != nil {
			return err
		}
	}
	return nil
}

// TouchRead reads one word in each page — the receiver-side pattern ("the
// dummy protocol touches (reads) one word in each page").
func (f *Fbuf) TouchRead(d *domain.Domain) error {
	for i := 0; i < f.Pages; i++ {
		if _, err := d.AS.TouchRead(f.Base + vm.VA(i*machine.PageSize)); err != nil {
			return err
		}
	}
	return nil
}

// DMAWrite stores data into the fbuf bypassing the MMU, as a bus-master
// device does (the Osiris board DMAs reassembled cells straight into main
// memory). No CPU cost is charged here — bus occupancy is modelled by the
// caller — and no protection applies; devices are configured by the trusted
// kernel. The target pages must be populated.
func (f *Fbuf) DMAWrite(off int, data []byte) error {
	if s := f.mgr.san; s != nil {
		s.checkDMA(f, true)
	}
	if off < 0 || off+len(data) > f.Size() {
		return fmt.Errorf("core: DMA write [%d,%d) outside fbuf of %d bytes", off, off+len(data), f.Size())
	}
	for len(data) > 0 {
		page := off / machine.PageSize
		po := off % machine.PageSize
		if f.frames[page] < 0 {
			return fmt.Errorf("core: DMA to unpopulated page %d of fbuf %#x", page, uint64(f.Base))
		}
		n := machine.PageSize - po
		if n > len(data) {
			n = len(data)
		}
		f.mgr.Sys.Mem.Write(f.frames[page], po, data[:n])
		data = data[n:]
		off += n
	}
	return nil
}

// DMARead copies data out of the fbuf bypassing the MMU (device transmit).
func (f *Fbuf) DMARead(off int, buf []byte) error {
	if s := f.mgr.san; s != nil {
		s.checkDMA(f, false)
	}
	if off < 0 || off+len(buf) > f.Size() {
		return fmt.Errorf("core: DMA read [%d,%d) outside fbuf of %d bytes", off, off+len(buf), f.Size())
	}
	for len(buf) > 0 {
		page := off / machine.PageSize
		po := off % machine.PageSize
		if f.frames[page] < 0 {
			return fmt.Errorf("core: DMA from unpopulated page %d of fbuf %#x", page, uint64(f.Base))
		}
		n := machine.PageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		f.mgr.Sys.Mem.Read(f.frames[page], po, buf[:n])
		buf = buf[n:]
		off += n
	}
	return nil
}

// CheckInvariants validates facility-wide consistency; tests call it after
// operation sequences (including randomized ones). It is control-plane: the
// caller must guarantee quiescence (no in-flight data-plane operations, all
// magazines drained) — the walk reads chunk and free-list structure without
// holding every lock at once.
func (m *Manager) CheckInvariants() error {
	if err := m.Snapshot().Check(); err != nil {
		return err
	}
	seenChunk := make(map[int]bool)
	for _, idx := range m.freeChunks {
		if seenChunk[idx] {
			return fmt.Errorf("core: chunk %d twice on free list", idx)
		}
		seenChunk[idx] = true
		if m.chunks[idx].Load() != nil {
			return fmt.Errorf("core: chunk %d both free and allocated", idx)
		}
	}
	for idx := range m.chunks {
		c := m.chunks[idx].Load()
		if c == nil {
			continue
		}
		if c.index != idx {
			return fmt.Errorf("core: chunk %d has index %d", idx, c.index)
		}
		used, dir := 0, 0
		for _, f := range c.fbufs {
			used += f.Pages
			if err := m.checkFbuf(f); err != nil {
				return err
			}
		}
		// The fbufs never overlap, so as many entries as they cover, each
		// naming one of them that covers the page, are the whole directory.
		for pg := range c.pages {
			if f := c.pages[pg].Load(); f != nil {
				dir++
				if !slices.Contains(c.fbufs, f) || !f.Contains(c.base+vm.VA(pg*machine.PageSize)) {
					return fmt.Errorf("core: chunk %d page %d directory names fbuf %#x", idx, pg, uint64(f.Base))
				}
			}
		}
		if dir != used {
			return fmt.Errorf("core: chunk %d page directory holds %d pages, its fbufs %d", idx, dir, used)
		}
		if used > c.used {
			return fmt.Errorf("core: chunk %d carved %d pages but used=%d", idx, used, c.used)
		}
	}
	for _, p := range m.paths {
		checkIdle := func(where string, f *Fbuf) error {
			if s := f.State(); s != StateFree {
				return fmt.Errorf("core: fbuf %#x on %s in state %s", uint64(f.Base), where, s)
			}
			if f.Refs() != 0 {
				return fmt.Errorf("core: %s fbuf %#x has %d refs", where, uint64(f.Base), f.Refs())
			}
			if f.Secured() {
				return fmt.Errorf("core: %s fbuf %#x still secured", where, uint64(f.Base))
			}
			return nil
		}
		for _, f := range p.free {
			if err := checkIdle("free list", f); err != nil {
				return err
			}
		}
		inventory := 0
		if d := p.depot; d != nil {
			inv := d.snapshotInventory()
			inventory = len(inv)
			for _, f := range inv {
				if err := checkIdle("depot", f); err != nil {
					return err
				}
				if f.Path != p {
					return fmt.Errorf("core: depot of path %d holds foreign fbuf %#x", p.ID, uint64(f.Base))
				}
			}
		}
		// Depot-inventory invariant: every StateFree fbuf carved for the
		// path is accounted for by exactly the free list plus the depot
		// (worker magazines must be drained at quiescence, the same
		// precondition the rest of this walk already assumes).
		stateFree := 0
		for _, c := range p.chunks {
			for _, f := range c.fbufs {
				if f.Path == p && f.State() == StateFree {
					stateFree++
				}
			}
		}
		if stateFree != len(p.free)+inventory {
			return fmt.Errorf("core: path %d inventory drift: %d StateFree fbufs in chunks but free list %d + depot %d",
				p.ID, stateFree, len(p.free), inventory)
		}
	}
	if m.san != nil {
		if err := m.san.audit(); err != nil {
			return err
		}
	}
	return m.Sys.Mem.CheckInvariants()
}

// CheckConverged is CheckInvariants plus quiescence: after a workload has
// finished — every transfer acknowledged, every notice delivered, every
// crashed domain's references drained — no fbuf may still be live or
// draining, no deallocation notice may still be queued, and no uncached
// fbuf may still be outstanding. The chaos harness calls this after each
// fault schedule: a violation means a fault leaked a buffer (a stranded
// reference, a notice that never travelled, a retained chunk that never
// drained) even though all the work completed.
func (m *Manager) CheckConverged() error {
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	for i := range m.chunks {
		c := m.chunks[i].Load()
		if c == nil {
			continue
		}
		for _, f := range c.fbufs {
			if s := f.State(); s != StateFree {
				return fmt.Errorf("core: not converged: fbuf %#x (path %v) still %s with %d refs",
					uint64(f.Base), f.Path, s, f.Refs())
			}
		}
	}
	for k, list := range m.notices {
		if len(list) > 0 {
			return fmt.Errorf("core: not converged: %d undelivered notices held at domain %d for domain %d",
				len(list), k.holder, k.owner)
		}
	}
	if n := len(m.uncached); n > 0 {
		return fmt.Errorf("core: not converged: %d uncached fbufs still outstanding", n)
	}
	// The crash/teardown rule of the epoch protocol: deferred frames may
	// only return to mem after the epoch drains, so a converged facility
	// has advanced past every park (call AdvanceEpoch after workers
	// quiesce; with no registered workers nothing ever parks).
	if n := m.EpochPending(); n > 0 {
		return fmt.Errorf("core: not converged: %d frames parked awaiting epoch retirement", n)
	}
	return nil
}

func (m *Manager) checkFbuf(f *Fbuf) error {
	held, total := 0, 0
	for i, h := range f.holders {
		if h.refs < 0 || h.refs == 0 && !h.mapped || slices.ContainsFunc(f.holders[:i], func(g holder) bool { return g.id == h.id }) {
			return fmt.Errorf("core: fbuf %#x holder line %d (domain %d, refs %d, mapped %v) is empty or repeated",
				uint64(f.Base), i, h.id, h.refs, h.mapped)
		}
		if h.refs > 0 {
			held++
		}
		total += h.refs
	}
	if held != f.held || int64(total) != f.total.Load() {
		return fmt.Errorf("core: fbuf %#x holder table counts %d holders and %d refs, fbuf says %d and %d",
			uint64(f.Base), held, total, f.held, f.total.Load())
	}
	if f.State() == StateLive && held == 0 {
		return fmt.Errorf("core: live fbuf %#x has no refs", uint64(f.Base))
	}
	if f.State() == StateDrainingNotice && held != 0 {
		return fmt.Errorf("core: draining fbuf %#x still has refs", uint64(f.Base))
	}
	// Every attached frame must be referenced by at least the mappings we
	// believe exist.
	for i, fn := range f.frames {
		if fn < 0 {
			continue
		}
		fr := m.Sys.Mem.Frame(fn)
		if fr.RefCount <= 0 {
			return fmt.Errorf("core: fbuf %#x page %d frame %d unreferenced", uint64(f.Base), i, fn)
		}
	}
	return nil
}

// FrameAt returns the physical frame currently backing the given page of
// the fbuf (mem.NoFrame if reclaimed or unpopulated). Simulator plumbing
// for zero-copy views; simulated code reaches bytes only through domain
// address spaces or device DMA.
func (f *Fbuf) FrameAt(page int) mem.FrameNum {
	if page < 0 || page >= len(f.frames) {
		return mem.NoFrame
	}
	return f.frames[page]
}
