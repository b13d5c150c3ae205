// Package core implements fast buffers (fbufs), the paper's primary
// contribution: an integrated buffer-management and cross-domain
// data-transfer facility that combines virtual page remapping with shared
// virtual memory and exploits locality in I/O traffic.
//
// The design follows section 3 of the paper:
//
//   - A globally shared *fbuf region* of virtual addresses; every fbuf is
//     mapped at the same VA in every domain (restricted dynamic read
//     sharing), so transfers never search for receiver VA space and virtual
//     address aliasing never arises.
//   - A two-level allocator: the kernel hands ownership of fixed-size
//     chunks of the region to per-domain, per-data-path allocators, which
//     then satisfy allocations without kernel involvement.
//   - Per-data-path caching: freed fbufs keep their mappings and return,
//     write permission restored to the originator, to a LIFO free list;
//     reuse requires zero mapping operations and no clearing.
//   - Volatile fbufs: by default the originator retains write permission;
//     a receiver that must trust the contents calls Secure, which is a
//     no-op for trusted (kernel) originators.
//   - Copy semantics only, over immutable buffers: a transfer shares pages
//     and bumps reference counts; nobody ever copies payload bytes.
//
// Costs are charged through the VM layer per the calibrated machine model;
// in the cached+volatile steady state a transfer touches no kernel state at
// all, exactly as the paper requires.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/vm"
)

// Region geometry. The fbuf region lives above all private per-domain
// ranges and is identical in every address space.
const (
	// RegionBase is the first virtual address of the fbuf region.
	RegionBase vm.VA = 0x1000_0000_0000
	// DefaultChunkPages is the size, in pages, of the chunks the kernel
	// hands to per-path allocators (256 KB).
	DefaultChunkPages = 64
	// DefaultRegionChunks bounds the region (64 MB with default chunks).
	DefaultRegionChunks = 256
)

// Options selects the optimization level of a data path's fbufs, matching
// the paper's four evaluated variants.
type Options struct {
	// Cached: freed fbufs return to the path's LIFO free list with
	// mappings intact (section 3.2.2). When false, every allocation
	// builds mappings and every free tears them down.
	Cached bool
	// Volatile: the originator keeps write permission across transfers;
	// receivers call Secure if they need immutability enforced
	// (section 3.2.4). When false, the first transfer out of the
	// originator eagerly removes its write permission, and recycling
	// restores it.
	Volatile bool
	// Integrated: aggregate-object nodes live inside fbufs so a transfer
	// passes only a DAG root reference (section 3.2.3). Consumed by
	// packages aggregate and xfer; core itself transfers fbufs either
	// way.
	Integrated bool
	// Populate: eagerly attach (and if necessary clear) physical frames
	// at allocation time. I/O buffers about to be filled by a device or
	// an application are populated eagerly; lazy population is used after
	// frame reclamation.
	Populate bool
	// NoClear skips the security clear of freshly allocated frames. Only
	// legitimate when the allocator knows the buffer will be fully
	// overwritten before any transfer (e.g. exact-size DMA reassembly
	// buffers). Table 1 in the paper likewise excludes clearing cost.
	NoClear bool
	// FIFO replaces the free list's LIFO discipline with FIFO — an
	// ablation knob. The paper argues for LIFO because "fbufs at the
	// front of the free list are most likely to have physical memory
	// mapped to them"; under memory pressure FIFO reuses the coldest
	// buffer and pays more lazy refills.
	FIFO bool
}

// CachedVolatile returns the full-optimization configuration.
func CachedVolatile() Options {
	return Options{Cached: true, Volatile: true, Integrated: true, Populate: true}
}

// Uncached returns the baseline fbuf configuration (still volatile).
func Uncached() Options { return Options{Volatile: true, Populate: true} }

// CachedNonVolatile returns caching with eager immutability enforcement.
func CachedNonVolatile() Options { return Options{Cached: true, Populate: true} }

// UncachedNonVolatile returns the plain-fbufs configuration: no caching,
// eager immutability.
func UncachedNonVolatile() Options { return Options{Populate: true} }

// State tracks an fbuf through its lifetime.
type State uint8

const (
	// StateFree: on a path free list (cached) or nonexistent (uncached).
	StateFree State = iota
	// StateLive: allocated, references outstanding.
	StateLive
	// StateDrainingNotice: all references dropped, waiting for the
	// deallocation notice to reach the owning allocator.
	StateDrainingNotice
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateLive:
		return "live"
	case StateDrainingNotice:
		return "draining"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Fbuf is one fast buffer: one or more contiguous virtual memory pages in
// the fbuf region, mapped at the same virtual address in every domain that
// can see it.
//
// Concurrency: the lifecycle state and the secured bit live in one atomic
// word (the DESIGN.md §10 state machine), the total reference count is an
// atomic counter, and the holder table and the frame slots are guarded by
// mu. Transfer, DupRef, and Free are therefore atomic transitions safe
// under concurrent workers; in the single-threaded default mode the atomics
// and locks are uncontended and all observable behavior (costs, events,
// counters) is unchanged.
type Fbuf struct {
	// Base is the fbuf's virtual address, identical in all domains.
	Base vm.VA
	// Pages is the fbuf's length in pages.
	Pages int

	// Path is the data path whose allocator owns the fbuf; nil for
	// default-allocator (uncached, pathless) fbufs.
	Path *DataPath
	// Originator allocated the fbuf and is the only domain that ever had
	// write permission.
	Originator *domain.Domain

	mgr    *Manager
	opts   Options
	frames []mem.FrameNum // NoFrame where reclaimed / not yet populated

	// st packs the lifecycle State (low 8 bits) and the secured flag
	// (bit 8): one atomic word so a transfer observes a consistent
	// (state, write-permission) pair without taking mu.
	st atomic.Uint32

	// mu guards the holder table and the frames slots during concurrent
	// operation. It ranks below the path lock and above the address-space
	// lock in the documented lock order.
	mu sync.Mutex
	// holders is the holder table: one line for each domain that holds
	// references to the fbuf or has page-table mappings of it (cached
	// fbufs keep their mappings across free and reuse). A line with
	// neither is dropped. The first four lines are stored in inline,
	// because a data path spans 2-4 domains; the table grows past them
	// through the same slice.
	holders []holder
	inline  [4]holder
	// held counts the lines with references: zero means no domain holds
	// the fbuf.
	held int
	// total mirrors the sum of the lines' references as an atomic, so
	// Refs() needs no lock.
	total atomic.Int64
	// gen increments on every recycle; stale references from a prior
	// life are a caller bug that tests can detect.
	gen atomic.Uint64
}

// holder is one line of an fbuf's holder table.
type holder struct {
	id     domain.ID
	refs   int  // live references the domain holds
	mapped bool // the domain has page-table mappings of the fbuf
}

// newFbuf builds a live fbuf of pages pages at base, with one reference
// held by its originator and no frames attached.
func newFbuf(m *Manager, base vm.VA, pages int, p *DataPath, orig *domain.Domain, opts Options) *Fbuf {
	f := &Fbuf{Base: base, Pages: pages, Path: p, Originator: orig, mgr: m, opts: opts,
		frames: make([]mem.FrameNum, pages)}
	for i := range f.frames {
		f.frames[i] = mem.NoFrame
	}
	f.holders = append(f.inline[:0], holder{id: orig.ID, refs: 1})
	f.held = 1
	f.st.Store(uint32(StateLive))
	f.total.Store(1)
	return f
}

// The holder-table methods below are called with f.mu held (or with the
// fbuf owned exclusively).

// lineOf returns id's line, or the zero line if id has none.
func (f *Fbuf) lineOf(id domain.ID) holder {
	for _, h := range f.holders {
		if h.id == id {
			return h
		}
	}
	return holder{}
}

// setLine stores id's line and keeps held; a line left with neither
// references nor mappings is dropped. The caller keeps total.
func (f *Fbuf) setLine(id domain.ID, refs int, mapped bool) {
	i := 0
	for i < len(f.holders) && f.holders[i].id != id {
		i++
	}
	if i == len(f.holders) {
		f.holders = append(f.holders, holder{id: id})
	}
	switch was := f.holders[i].refs > 0; {
	case !was && refs > 0:
		f.held++
	case was && refs == 0:
		f.held--
	}
	f.holders[i] = holder{id: id, refs: refs, mapped: mapped}
	if refs == 0 && !mapped {
		f.holders = slices.Delete(f.holders, i, i+1)
	}
}

// clearRefs drops every reference (a recycle or teardown); lines of
// mapped domains stay. The caller keeps total.
func (f *Fbuf) clearRefs() {
	n := 0
	for _, h := range f.holders {
		if h.mapped {
			h.refs = 0
			f.holders[n] = h
			n++
		}
	}
	f.holders = f.holders[:n]
	f.held = 0
}

// mappedIDs appends the domains with mappings of the fbuf to dst, in line
// order. unmapFromLocked edits the table, so its callers unmap from the
// copy.
func (f *Fbuf) mappedIDs(dst []domain.ID) []domain.ID {
	for _, h := range f.holders {
		if h.mapped {
			dst = append(dst, h.id)
		}
	}
	return dst
}

// securedBit is the secured flag inside the packed st word.
const securedBit uint32 = 1 << 8

// loadState reads the lifecycle state from the packed word.
func (f *Fbuf) loadState() State { return State(f.st.Load() & 0xff) }

// setState atomically replaces the lifecycle state, preserving the
// secured bit.
func (f *Fbuf) setState(s State) {
	for {
		old := f.st.Load()
		if f.st.CompareAndSwap(old, (old&^uint32(0xff))|uint32(s)) {
			return
		}
	}
}

// isSecured reads the secured bit.
func (f *Fbuf) isSecured() bool { return f.st.Load()&securedBit != 0 }

// setSecured atomically sets or clears the secured bit.
func (f *Fbuf) setSecured(v bool) {
	for {
		old := f.st.Load()
		nw := old &^ securedBit
		if v {
			nw = old | securedBit
		}
		if f.st.CompareAndSwap(old, nw) {
			return
		}
	}
}

// resetLive is the cached-reuse transition: Free → Live with a single
// originator reference and a bumped generation. The caller owns the fbuf
// exclusively (it was just popped from a free list or magazine).
func (f *Fbuf) resetLive(orig *domain.Domain) {
	f.setState(StateLive)
	f.mu.Lock()
	f.setLine(orig.ID, 1, f.lineOf(orig.ID).mapped)
	f.mu.Unlock()
	f.total.Store(1)
	f.gen.Add(1)
}

// Size returns the fbuf length in bytes.
func (f *Fbuf) Size() int { return f.Pages * machine.PageSize }

// State returns the fbuf's lifecycle state.
func (f *Fbuf) State() State { return f.loadState() }

// Secured reports whether the originator's write permission is removed.
func (f *Fbuf) Secured() bool { return f.isSecured() }

// Volatile reports whether the fbuf is volatile.
func (f *Fbuf) Volatile() bool { return f.opts.Volatile }

// Refs returns the total outstanding reference count.
func (f *Fbuf) Refs() int { return int(f.total.Load()) }

// HeldBy reports whether d holds at least one reference.
func (f *Fbuf) HeldBy(d *domain.Domain) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lineOf(d.ID).refs > 0
}

// Contains reports whether va falls inside the fbuf.
func (f *Fbuf) Contains(va vm.VA) bool {
	return va >= f.Base && va < f.Base+vm.VA(f.Size())
}

// Generation returns the recycle generation (diagnostics).
func (f *Fbuf) Generation() uint64 { return f.gen.Load() }

// Errors returned by the fbuf facility.
var (
	// ErrQuota: the path allocator hit its kernel-imposed chunk limit
	// ("the kernel limits the number of chunks that can be allocated to
	// any data path-specific fbuf allocator", section 3.3).
	ErrQuota = errors.New("core: data path chunk quota exhausted")
	// ErrRegionFull: the global fbuf region has no free chunks.
	ErrRegionFull = errors.New("core: fbuf region exhausted")
	// ErrNotHolder: the acting domain holds no reference to the fbuf.
	ErrNotHolder = errors.New("core: domain holds no reference to fbuf")
	// ErrNotAttached: the domain was never attached to the fbuf manager.
	ErrNotAttached = errors.New("core: domain not attached to fbuf region")
	// ErrNotOriginator: only the originator may perform the operation.
	ErrNotOriginator = errors.New("core: not the fbuf's originator")
	// ErrDeadDomain: the domain has terminated.
	ErrDeadDomain = errors.New("core: domain is dead")
	// ErrPathClosed: the data path has been closed.
	ErrPathClosed = errors.New("core: data path closed")
)
