package core

import (
	"fmt"
	"sync/atomic"

	"fbufs/internal/domain"
)

// DefaultMagazineCap is the stash capacity used when NewMagazine is given a
// non-positive capacity.
const DefaultMagazineCap = 16

// Magazine is a per-worker LIFO cache of free fbufs layered over a path's
// shared free list, in the style of Bonwick's slab-magazine allocator. Each
// worker owns one magazine per path it allocates from; steady-state
// Alloc/Free cycles are served from the private stash and touch no shared
// lock at all. The stash refills from — and flushes back to — the path free
// list in batches of up to half the capacity, so the shared lock is paid
// once per batch instead of once per buffer.
//
// A magazine belongs to one worker: its methods are not safe for concurrent
// use on the same magazine (distinct magazines over one path are). It sits
// above the kernel boundary exactly like the paper's user-level per-path
// allocator, so a stash hit consults no fault plane and emits no events —
// the facility's counters and events see a hit-served buffer only through
// the deferred counter flush. Call Drain before the worker exits or the
// path closes, or the stashed fbufs stay invisible to the shared list.
type Magazine struct {
	path  *DataPath
	cap   int
	stash []*Fbuf

	// prev is the Bonwick second magazine, used only when the path has a
	// depot: a worker holds a loaded magazine (stash) and a previous one,
	// swapping them locally when one runs dry or full so a strict
	// alloc/free alternation at a magazine boundary never touches the
	// depot. Only when both are empty (or both full) does the worker
	// exchange a whole unit with the depot — one constant-time swap under
	// the depot's leaf lock instead of an item-at-a-time refill.
	prev []*Fbuf

	// Local counters, merged into the shared Stats/Contention groups on
	// refill, flush, exchange, and Drain — the deferral is what keeps the
	// hit path free of shared-cacheline traffic. Hit-served allocations
	// count as Allocs+CacheHits and stash frees as Frees+Recycles, so the
	// global invariants (Stats.Check) hold at quiescence once the magazine
	// is drained.
	hits, misses, refills, flushes uint64
	allocs, frees, recycles        uint64

	// exchTotal is the lifetime depot-exchange count (the shared-group
	// DepotExchanges counter is bumped by the depot itself at swap time,
	// so this one is never reset by a merge) — the bench harness reads it
	// to attribute exchange costs.
	exchTotal uint64
}

// NewMagazine creates a magazine over the path with the given stash
// capacity (DefaultMagazineCap if non-positive).
func (p *DataPath) NewMagazine(capacity int) *Magazine {
	if capacity <= 0 {
		capacity = DefaultMagazineCap
	}
	return &Magazine{path: p, cap: capacity, stash: make([]*Fbuf, 0, capacity)}
}

// Path returns the data path the magazine allocates from.
func (g *Magazine) Path() *DataPath { return g.path }

// Depth returns the number of fbufs held locally (loaded + previous).
func (g *Magazine) Depth() int { return len(g.stash) + len(g.prev) }

// ExchangeCount returns the lifetime number of depot unit exchanges this
// magazine performed (0 on a path without a depot).
func (g *Magazine) ExchangeCount() uint64 { return g.exchTotal }

// LocalStats returns the magazine's unflushed local counters
// (hits, misses, refills, flushes) — test and diagnostics visibility into
// the deferred accounting.
func (g *Magazine) LocalStats() (hits, misses, refills, flushes uint64) {
	return g.hits, g.misses, g.refills, g.flushes
}

// popStash pops the hot end of the loaded stash; the caller guarantees it
// is non-empty and accounts the hit/miss itself.
func (g *Magazine) popStash() *Fbuf {
	n := len(g.stash)
	f := g.stash[n-1]
	g.stash[n-1] = nil
	g.stash = g.stash[:n-1]
	return f
}

// Alloc allocates an fbuf for the path's originator. The fast path pops the
// private stash with zero shared-lock traffic (swapping in the previous
// magazine when the loaded one runs dry — still local). On a true miss a
// depot-backed path exchanges an empty magazine for a full unit under one
// leaf-lock swap; otherwise the stash refills item-at-a-time from the
// shared free list under one lock acquisition, and if the shared list is
// empty too the call falls through to the path's full Alloc (carve, fault
// plane, events — the kernel boundary).
func (g *Magazine) Alloc() (*Fbuf, error) {
	p := g.path
	if len(g.stash) == 0 && len(g.prev) > 0 {
		// Local magazine swap: the previous magazine becomes the loaded
		// one. No shared state is touched, so this is still a hit.
		g.stash, g.prev = g.prev, g.stash
	}
	if len(g.stash) > 0 {
		f := g.popStash()
		g.hits++
		g.allocs++
		if s := p.mgr.san; s != nil {
			s.verifyReuse(f)
		}
		f.resetLive(p.Originator())
		return f, nil
	}
	g.misses++
	if d := p.depot; d != nil {
		if unit, ok := d.ExchangeEmpty(); ok {
			g.stash = unit
			g.refills++
			g.exchTotal++
			g.mergeCounters()
			f := g.popStash()
			g.allocs++
			if s := p.mgr.san; s != nil {
				s.verifyReuse(f)
			}
			f.resetLive(p.Originator())
			return f, nil
		}
	}
	p.lock()
	if p.closed {
		p.unlock()
		g.mergeCounters()
		return nil, ErrPathClosed
	}
	take := g.cap
	if take > len(p.free) {
		take = len(p.free)
	}
	if take > 0 {
		// Move the hot (most recently freed) tail of the shared LIFO
		// list into the stash; stash pops then reuse hottest-first.
		g.stash = append(g.stash, p.free[len(p.free)-take:]...)
		p.free = p.free[:len(p.free)-take]
		g.refills++
	}
	p.unlock()
	g.mergeCounters()
	if len(g.stash) > 0 {
		f := g.popStash()
		g.allocs++
		if s := p.mgr.san; s != nil {
			s.verifyReuse(f)
		}
		f.resetLive(p.Originator())
		return f, nil
	}
	// Shared list dry: pay the full allocation path.
	return p.Alloc()
}

// Free returns an fbuf to the magazine. The fast path — the canonical
// magazine pattern: the originator dropping the sole reference of a cached,
// unsecured fbuf of this path — pushes the private stash with zero shared
// traffic; anything else (transferred refs outstanding, secured, foreign
// path, uncached) takes the facility's full Free path with its notice
// machinery. A full stash flushes half back to the shared list under one
// lock.
func (g *Magazine) Free(f *Fbuf, d *domain.Domain) error {
	p := g.path
	m := p.mgr
	if f.Path == p && p.opts.Cached && d == f.Originator && !f.isSecured() {
		if s := f.loadState(); s != StateLive {
			return fmt.Errorf("core: free of %s fbuf %#x", s, uint64(f.Base))
		}
		f.mu.Lock()
		refs := f.lineOf(d.ID).refs
		if refs == 0 {
			f.mu.Unlock()
			return ErrNotHolder
		}
		if f.held == 1 && refs == 1 {
			f.clearRefs()
			f.mu.Unlock()
			f.total.Store(0)
			f.setState(StateFree)
			g.frees++
			g.recycles++
			if s := m.san; s != nil {
				s.poisonFree(f)
			}
			g.stash = append(g.stash, f)
			if len(g.stash) >= g.cap {
				g.overflow()
			}
			return nil
		}
		// Other references outstanding: not the sole holder — the full
		// path handles partial drops and the notice flow.
		f.mu.Unlock()
	}
	return m.Free(f, d)
}

// overflow handles a loaded magazine that just reached capacity. With a
// depot the full magazine rotates into the previous slot, and when both
// are full the older unit is exchanged into the depot whole — one
// constant-time leaf-lock swap. Without a depot, half the stash flushes
// back to the shared free list item-at-a-time (the PR 4 behavior).
func (g *Magazine) overflow() {
	d := g.path.depot
	if d == nil {
		g.flush(g.cap / 2)
		return
	}
	if len(g.prev) == 0 {
		g.stash, g.prev = g.prev, g.stash
		return
	}
	d.ExchangeFull(g.prev)
	g.prev = g.stash
	g.stash = nil
	g.flushes++
	g.exchTotal++
	g.mergeCounters()
}

// Drain flushes the entire local inventory (loaded + previous) and all
// deferred counters back to the shared path state. Call at worker exit and
// before ClosePath or CheckInvariants — the facility's invariants only see
// drained magazines.
func (g *Magazine) Drain() {
	if len(g.prev) > 0 {
		// Previous holds the older buffers: flush it first so the shared
		// list receives oldest-first, like a plain flush of one stash.
		g.stash = append(g.prev, g.stash...)
		g.prev = nil
	}
	g.flush(len(g.stash))
}

// flush returns the n oldest stashed fbufs to the shared free list (keeping
// the hot end local) and merges the deferred counters, all under one lock
// acquisition. On a closed path the stash is torn down through the normal
// recycle machinery instead.
func (g *Magazine) flush(n int) {
	p := g.path
	p.lock()
	if p.closed {
		// Path closed with fbufs stashed: tear them down like free-listed
		// buffers of a closed path. Recycles were already counted when
		// the buffers entered the stash, so hand the teardown machinery
		// raw buffers without re-counting.
		stash := g.stash
		g.stash = g.stash[:0]
		g.mergeCounters()
		p.unlock()
		for _, f := range stash {
			p.mgr.teardownStashed(f)
		}
		return
	}
	if n > len(g.stash) {
		n = len(g.stash)
	}
	if n > 0 {
		p.free = append(p.free, g.stash[:n]...)
		g.stash = append(g.stash[:0], g.stash[n:]...)
		g.flushes++
	}
	depth := len(p.free)
	g.mergeCounters()
	p.unlock()
	if o := p.mgr.Sys.Obs; o != nil && n > 0 {
		p.ensureMetrics(o)
		p.depthGauge.Set(int64(depth))
	}
}

// mergeCounters merges the deferred local counters into the shared Stats
// and Contention groups. Entirely atomic — a depot exchange merges without
// holding the path lock, which is why Allocated is an atomic field rather
// than lock-guarded (the PR 4 merge read Stats state non-atomically during
// an exchange). The zeroed locals make the merge idempotent.
func (g *Magazine) mergeCounters() {
	p := g.path
	m := p.mgr
	if g.allocs > 0 {
		atomic.AddUint64(&m.stats.Allocs, g.allocs)
		atomic.AddUint64(&m.stats.CacheHits, g.allocs)
		atomic.AddUint64(&p.Allocated, g.allocs)
	}
	if g.frees > 0 {
		atomic.AddUint64(&m.stats.Frees, g.frees)
	}
	if g.recycles > 0 {
		atomic.AddUint64(&m.stats.Recycles, g.recycles)
	}
	atomic.AddUint64(&m.contention.MagazineHits, g.hits)
	atomic.AddUint64(&m.contention.MagazineMisses, g.misses)
	atomic.AddUint64(&m.contention.MagazineRefills, g.refills)
	atomic.AddUint64(&m.contention.MagazineFlushes, g.flushes)
	g.hits, g.misses, g.refills, g.flushes = 0, 0, 0, 0
	g.allocs, g.frees, g.recycles = 0, 0, 0
}

// teardownStashed fully releases an fbuf that was sitting in a magazine
// stash when its path closed (its Recycles count was already taken).
func (m *Manager) teardownStashed(f *Fbuf) {
	if m.san != nil {
		m.san.verifyReuse(f)
	}
	f.mu.Lock()
	m.unmapAllLocked(f)
	m.releaseFrames(f)
	f.clearRefs()
	f.mu.Unlock()
	f.setState(StateFree)
	f.total.Store(0)
	f.setSecured(false)
	m.Sys.Sink().Charge(m.Sys.Cost.VAFree)
	m.removeFromChunk(f)
}
