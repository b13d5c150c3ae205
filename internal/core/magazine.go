package core

import (
	"fmt"
	"sync/atomic"

	"fbufs/internal/domain"
)

// Magazine is a per-worker LIFO cache of free fbufs over a path's depot,
// in the style of Bonwick's slab-magazine allocator. Each worker owns one
// magazine per path it allocates from; steady-state Alloc/Free cycles are
// served from the private stash and touch no shared lock at all. The
// worker holds a loaded stash and a previous one, each one depot unit,
// and swaps them locally when the loaded one runs dry or full, so a
// strict alloc/free alternation at a unit boundary never touches the
// depot. Only when both are empty (or both full) does the worker exchange
// a whole unit with the depot: one constant-time swap under the depot's
// leaf lock.
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
	depot *Depot
	stash []*Fbuf // the loaded unit
	prev  []*Fbuf // the previous unit

	// Local counters, merged into the shared Stats/Contention groups on
	// refill, exchange, and Drain — the deferral is what keeps the hit
	// path free of shared-cacheline traffic. Hit-served allocations count
	// as Allocs+CacheHits and stash frees as Frees+Recycles, so the global
	// invariants (Stats.Check) hold at quiescence once the magazine is
	// drained.
	hits, misses, refills, flushes uint64
	allocs, frees, recycles        uint64

	// exchTotal is the lifetime depot-exchange count (the shared-group
	// DepotExchanges counter is bumped by the depot itself at swap time,
	// so this one is never reset by a merge) — the bench harness reads it
	// to attribute exchange costs.
	exchTotal uint64
}

// NewMagazine creates a worker magazine over the depot's path; each of its
// two stashes holds one depot unit.
func (d *Depot) NewMagazine() *Magazine {
	return &Magazine{path: d.path, depot: d, stash: make([]*Fbuf, 0, d.unit)}
}

// Path returns the data path the magazine allocates from.
func (g *Magazine) Path() *DataPath { return g.path }

// Depth returns the number of fbufs held locally (loaded + previous).
func (g *Magazine) Depth() int { return len(g.stash) + len(g.prev) }

// ExchangeCount returns the lifetime number of depot unit exchanges this
// magazine performed.
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
// unit when the loaded one runs dry — still local). On a true miss the
// magazine exchanges its empty stash for a full depot unit under one
// leaf-lock swap; if the depot is empty the stash refills item-at-a-time
// from the shared free list under one lock acquisition, and if the shared
// list is empty too the call falls through to the path's full Alloc
// (carve, fault plane, events — the kernel boundary).
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
	if unit, ok := g.depot.ExchangeEmpty(); ok {
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
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		g.mergeCounters()
		return nil, ErrPathClosed
	}
	take := g.depot.unit
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
	p.mu.Unlock()
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
// machinery. A full stash rotates into the previous slot or goes back to
// the depot whole.
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
			if len(g.stash) >= g.depot.unit {
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

// overflow handles a loaded stash that just filled: it rotates into the
// previous slot, and when both are full the older unit is exchanged into
// the depot whole — one constant-time leaf-lock swap.
func (g *Magazine) overflow() {
	if len(g.prev) == 0 {
		g.stash, g.prev = g.prev, g.stash
		return
	}
	g.depot.ExchangeFull(g.prev)
	g.prev = g.stash
	g.stash = nil
	g.flushes++
	g.exchTotal++
	g.mergeCounters()
}

// Drain returns the whole local inventory (previous, then loaded) to the
// shared free list and merges all deferred counters, under one lock
// acquisition. On a closed path the inventory is torn down through the
// normal recycle machinery instead. Call at worker exit and before
// ClosePath or CheckInvariants — the facility's invariants only see
// drained magazines.
func (g *Magazine) Drain() {
	p := g.path
	inv := g.stash
	if len(g.prev) > 0 {
		// Previous holds the older buffers, so the shared list receives
		// them first.
		inv = append(g.prev, g.stash...)
	}
	g.prev, g.stash = nil, inv[:0]
	p.mu.Lock()
	if p.closed {
		// Recycles were already counted when the buffers entered the
		// magazine, so hand the teardown machinery raw buffers without
		// re-counting.
		g.mergeCounters()
		p.mu.Unlock()
		for _, f := range inv {
			p.mgr.teardownStashed(f)
		}
		return
	}
	p.free = append(p.free, inv...)
	if len(inv) > 0 {
		g.flushes++
	}
	g.mergeCounters()
	p.mu.Unlock()
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

// teardownStashed fully releases an fbuf that was sitting in a magazine or
// the depot when its path closed (its Recycles count was already taken).
func (m *Manager) teardownStashed(f *Fbuf) {
	if m.san != nil {
		m.san.verifyReuse(f)
	}
	m.teardown(f)
}
