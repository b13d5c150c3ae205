package core

import (
	"sync"
	"sync/atomic"
)

// Depot is the central magazine depot of the Bonwick three-level allocator
// (worker magazine → per-path depot → path free list / chunk carve). Workers
// exchange whole magazines with the depot — a full stash for an empty one or
// vice versa — so the shared cost of a refill or a drain is one constant-time
// unit swap under a single leaf-rank lock, not an item-at-a-time walk of the
// path free list. Loose inventory lives on sharded free lists that feed the
// unit stack: ExchangeFull spills surplus units into shards round-robin, and
// ExchangeEmpty reassembles units from the shards when the stack runs dry,
// so a burst imbalance between producers and consumers degrades to sharded
// (not global) contention.
//
// A depot is optional per-path state and the only backing of a magazine:
// install one with EnableDepot before workers start, and create each
// worker's magazine with its NewMagazine.
//
// Lock ranks (DESIGN.md §10): Depot.mu orders after every data-plane lock
// and before the shard leaves — a unit swap may assemble or spill through
// depotShard.mu while holding it, and nothing else is ever acquired under
// either.
type Depot struct {
	path *DataPath
	unit int // fbufs per magazine unit

	// mu guards the unit stack, the closed flag, and the spill cursor.
	mu        sync.Mutex
	closed    bool
	full      [][]*Fbuf // LIFO stack of full magazine units
	maxFull   int
	spillNext int

	shards []*depotShard
}

// depotShard is one sharded loose-inventory free list feeding the depot.
type depotShard struct {
	mu   sync.Mutex
	free []*Fbuf
}

// DefaultMagazineCap is the depot unit, and so the capacity of each of a
// magazine's two stashes, used when EnableDepot is given a non-positive
// unit.
const DefaultMagazineCap = 16

// DefaultDepotShards is the shard count used when EnableDepot is given a
// non-positive one.
const DefaultDepotShards = 8

// defaultDepotMaxFull bounds the unit stack; surplus full units spill into
// the shards instead of growing the stack without limit.
const defaultDepotMaxFull = 16

// EnableDepot installs a magazine depot on the path with the given unit size
// (fbufs per magazine, DefaultMagazineCap if non-positive) and shard count
// (DefaultDepotShards if non-positive). Control-plane: call before workers
// start, like NewPath. Idempotent — a second call returns the existing depot.
func (p *DataPath) EnableDepot(unit, shards int) *Depot {
	if p.depot != nil {
		return p.depot
	}
	if unit <= 0 {
		unit = DefaultMagazineCap
	}
	if shards <= 0 {
		shards = DefaultDepotShards
	}
	d := &Depot{path: p, unit: unit, maxFull: defaultDepotMaxFull}
	for i := 0; i < shards; i++ {
		d.shards = append(d.shards, &depotShard{})
	}
	p.depot = d
	return d
}

// Depot returns the path's magazine depot, nil when none is installed.
func (p *DataPath) Depot() *Depot { return p.depot }

// SetMaxFull overrides the unit-stack bound (defaultDepotMaxFull). Control-
// plane: call right after EnableDepot, before workers start. The conformance
// rig shrinks it to 1 so spills and assemblies are reachable inside its small
// geometry; values below 1 are clamped to 1.
func (d *Depot) SetMaxFull(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.maxFull = n
	d.mu.Unlock()
}

// Unit returns the depot's magazine unit size.
func (d *Depot) Unit() int { return d.unit }

// Shards returns the shard count.
func (d *Depot) Shards() int { return len(d.shards) }

// ExchangeEmpty swaps an empty worker magazine for a full unit: the unit
// stack is popped when possible, otherwise a unit is assembled from the
// shards (hottest shard order, taking each shard lock once). It returns
// (nil, false) when the depot holds no inventory or the path has closed —
// the caller then falls back to the path free list.
func (d *Depot) ExchangeEmpty() ([]*Fbuf, bool) {
	m := d.path.mgr
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, false
	}
	if n := len(d.full); n > 0 {
		unit := d.full[n-1]
		d.full[n-1] = nil
		d.full = d.full[:n-1]
		d.mu.Unlock()
		atomic.AddUint64(&m.contention.DepotExchanges, 1)
		return unit, true
	}
	// Stack dry: assemble a unit from the shard free lists. Shard order is
	// fixed (0..n-1) so single-threaded runs are deterministic.
	unit := make([]*Fbuf, 0, d.unit)
	for i := 0; i < len(d.shards) && len(unit) < d.unit; i++ {
		s := d.shards[i]
		s.mu.Lock()
		take := d.unit - len(unit)
		if take > len(s.free) {
			take = len(s.free)
		}
		if take > 0 {
			unit = append(unit, s.free[len(s.free)-take:]...)
			for j := len(s.free) - take; j < len(s.free); j++ {
				s.free[j] = nil
			}
			s.free = s.free[:len(s.free)-take]
		}
		s.mu.Unlock()
	}
	d.mu.Unlock()
	if len(unit) == 0 {
		return nil, false
	}
	atomic.AddUint64(&m.contention.DepotExchanges, 1)
	atomic.AddUint64(&m.contention.DepotAssemblies, 1)
	return unit, true
}

// ExchangeFull swaps a full worker magazine into the depot for an (implicit)
// empty one. The unit lands on the stack, or spills into a shard round-robin
// when the stack is at its bound. If the path closed while the worker held
// the magazine, the stranded unit is torn down through the closed-path
// machinery instead — exactly as a Drain on the closed path would.
func (d *Depot) ExchangeFull(unit []*Fbuf) {
	if len(unit) == 0 {
		return
	}
	m := d.path.mgr
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		for _, f := range unit {
			m.teardownStashed(f)
		}
		return
	}
	if len(d.full) < d.maxFull {
		d.full = append(d.full, unit)
		d.mu.Unlock()
		atomic.AddUint64(&m.contention.DepotExchanges, 1)
		return
	}
	s := d.shards[d.spillNext%len(d.shards)]
	d.spillNext++
	s.mu.Lock()
	s.free = append(s.free, unit...)
	s.mu.Unlock()
	d.mu.Unlock()
	atomic.AddUint64(&m.contention.DepotExchanges, 1)
	atomic.AddUint64(&m.contention.DepotSpills, 1)
}

// Inventory counts the fbufs currently held by the depot (units + shards).
func (d *Depot) Inventory() int {
	n := 0
	d.mu.Lock()
	for _, u := range d.full {
		n += len(u)
	}
	for _, s := range d.shards {
		s.mu.Lock()
		n += len(s.free)
		s.mu.Unlock()
	}
	d.mu.Unlock()
	return n
}

// snapshotInventory returns the depot's inventory in drain order (unit stack
// top-down, then shards 0..n-1) without removing it. Control-plane: the
// invariant walk calls it at quiescence.
func (d *Depot) snapshotInventory() []*Fbuf {
	var out []*Fbuf
	d.mu.Lock()
	for i := len(d.full) - 1; i >= 0; i-- {
		out = append(out, d.full[i]...)
	}
	for _, s := range d.shards {
		s.mu.Lock()
		out = append(out, s.free...)
		s.mu.Unlock()
	}
	d.mu.Unlock()
	return out
}

// drain removes and returns the entire inventory in deterministic order:
// unit-stack top-down (most recently exchanged first), each unit in slice
// order, then shards 0..n-1 in list order. The depot stays open — EvictPath
// demotes through here and the path keeps allocating afterwards.
func (d *Depot) drain() []*Fbuf {
	var out []*Fbuf
	d.mu.Lock()
	for i := len(d.full) - 1; i >= 0; i-- {
		out = append(out, d.full[i]...)
		d.full[i] = nil
	}
	d.full = d.full[:0]
	for _, s := range d.shards {
		s.mu.Lock()
		out = append(out, s.free...)
		s.free = nil
		s.mu.Unlock()
	}
	d.mu.Unlock()
	return out
}

// close drains the depot and marks it closed: subsequent ExchangeEmpty
// calls fail and ExchangeFull tears stranded units down. ClosePath calls it.
func (d *Depot) close() []*Fbuf {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return d.drain()
}

// DepotCharge moves up to n fbufs from the hot end of the path's free list
// into the depot as one unit (the conformance model drives the depot through
// this and DepotDischarge). It returns the number moved.
func (p *DataPath) DepotCharge(n int) int {
	d := p.depot
	if d == nil || n <= 0 {
		return 0
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	if n > len(p.free) {
		n = len(p.free)
	}
	unit := make([]*Fbuf, n)
	copy(unit, p.free[len(p.free)-n:])
	for j := len(p.free) - n; j < len(p.free); j++ {
		p.free[j] = nil
	}
	p.free = p.free[:len(p.free)-n]
	p.mu.Unlock()
	d.ExchangeFull(unit)
	return n
}

// DepotDischarge moves the depot's entire inventory back onto the path's
// free list in drain order, returning the number moved. On a closed path the
// inventory is torn down instead (the depot is already closed then, so drain
// returns nothing and the count is 0).
func (p *DataPath) DepotDischarge() int {
	d := p.depot
	if d == nil {
		return 0
	}
	inv := d.drain()
	if len(inv) == 0 {
		return 0
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for _, f := range inv {
			p.mgr.teardownStashed(f)
		}
		return 0
	}
	p.free = append(p.free, inv...)
	p.mu.Unlock()
	return len(inv)
}

// ShardDepths snapshots every shard's current depth.
func (d *Depot) ShardDepths() []int {
	out := make([]int, len(d.shards))
	for i, s := range d.shards {
		s.mu.Lock()
		out[i] = len(s.free)
		s.mu.Unlock()
	}
	return out
}
