// Package a is the lockorder corpus: types named like the facility's
// lock owners (matching is by type and field name), exercised in the
// documented order and against it.
package a

import "sync"

type DataPath struct{ mu sync.Mutex }

func (p *DataPath) lock()   { p.mu.Lock() }
func (p *DataPath) unlock() { p.mu.Unlock() }

type Manager struct {
	regionMu sync.Mutex
	noticeMu sync.Mutex
}

type chunk struct{ mu sync.Mutex }

type Fbuf struct{ mu sync.Mutex }

type Sanitizer struct{ mu sync.Mutex }

type AddrSpace struct{ mu sync.Mutex }

// --- The documented order is clean ---------------------------------------

func goodNesting(p *DataPath, m *Manager, c *chunk, f *Fbuf) {
	p.mu.Lock()
	m.regionMu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	m.regionMu.Unlock()
	f.mu.Lock()
	f.mu.Unlock()
	p.mu.Unlock()
}

func wrapperCountsAsPathLock(p *DataPath, m *Manager) {
	p.lock()
	m.regionMu.Lock()
	m.regionMu.Unlock()
	p.unlock()
}

func sequentialNotNested(m *Manager, f *Fbuf) {
	f.mu.Lock()
	f.mu.Unlock()
	m.regionMu.Lock() // the fbuf lock was released: no nesting
	m.regionMu.Unlock()
}

func leafAboveEverything(m *Manager, f *Fbuf, a *AddrSpace) {
	f.mu.Lock()
	a.mu.Lock()
	m.noticeMu.Lock()
	m.noticeMu.Unlock()
	a.mu.Unlock()
	f.mu.Unlock()
}

func armsAreExclusive(p *DataPath, cond bool) {
	if cond {
		p.lock()
		p.unlock()
	} else {
		p.lock()
		p.unlock()
	}
}

func unrankedIgnored(mu *sync.Mutex, p *DataPath) {
	mu.Lock() // not in the rank table: invisible
	p.lock()
	p.unlock()
	mu.Unlock()
}

func tryLockCannotBlock(p *DataPath, m *Manager) {
	m.regionMu.Lock()
	if p.mu.TryLock() { // a failed try returns; no deadlock cycle
		p.mu.Unlock()
	}
	m.regionMu.Unlock()
}

// --- Inversions ----------------------------------------------------------

func regionThenPath(m *Manager, p *DataPath) {
	m.regionMu.Lock()
	p.mu.Lock() // want "lock order violation: acquiring DataPath.mu while holding Manager.regionMu"
	p.mu.Unlock()
	m.regionMu.Unlock()
}

func fbufThenPathWrapper(f *Fbuf, p *DataPath) {
	f.mu.Lock()
	defer f.mu.Unlock() // deferred: held to function end
	p.lock()            // want "lock order violation: acquiring DataPath.mu while holding Fbuf.mu"
	p.unlock()
}

func sanitizerThenFbuf(s *Sanitizer, f *Fbuf) {
	s.mu.Lock()
	f.mu.Lock() // want "lock order violation: acquiring Fbuf.mu while holding Sanitizer.mu"
	f.mu.Unlock()
	s.mu.Unlock()
}

func noticeThenChunk(m *Manager, c *chunk) {
	m.noticeMu.Lock()
	c.mu.Lock() // want "lock order violation: acquiring chunk.mu while holding Manager.noticeMu"
	c.mu.Unlock()
	m.noticeMu.Unlock()
}

func selfRelock(f *Fbuf) {
	f.mu.Lock()
	f.mu.Lock() // want "already holds this mutex"
	f.mu.Unlock()
	f.mu.Unlock()
}

func twoFbufsAllowed(a, b *Fbuf) {
	a.mu.Lock()
	b.mu.Lock() // distinct instances at one rank: caller orders them
	b.mu.Unlock()
	a.mu.Unlock()
}

// --- Ring pair (PR 9): a leaf with pop-under-lock discipline -------------

type Pair struct{ mu sync.Mutex }

func ringPopUnderLock(f *Fbuf, r *Pair) {
	f.mu.Lock()
	r.mu.Lock() // leaf under Fbuf.mu: fine
	r.mu.Unlock()
	f.mu.Unlock()
}

func ringProcessOutsideLock(r *Pair, p *DataPath) {
	r.mu.Lock()
	r.mu.Unlock()
	p.mu.Lock() // ring lock released before processing: no nesting
	p.mu.Unlock()
}

func ringThenPath(r *Pair, p *DataPath) {
	r.mu.Lock()
	p.mu.Lock() // want "lock order violation: acquiring DataPath.mu while holding Pair.mu"
	p.mu.Unlock()
	r.mu.Unlock()
}

func ringThenAddrSpace(r *Pair, a *AddrSpace) {
	r.mu.Lock()
	a.mu.Lock() // want "lock order violation: acquiring AddrSpace.mu while holding Pair.mu"
	a.mu.Unlock()
	r.mu.Unlock()
}

func ringSelfRelock(r *Pair) {
	r.mu.Lock()
	r.mu.Lock() // want "already holds this mutex"
	r.mu.Unlock()
	r.mu.Unlock()
}

// --- Depot layer (PR 10): depot above the shard/epoch leaves -------------

type Depot struct{ mu sync.Mutex }

type depotShard struct{ mu sync.Mutex }

type epochState struct{ mu sync.Mutex }

func depotTakesShard(d *Depot, s *depotShard) {
	d.mu.Lock()
	s.mu.Lock() // assembly: shard leaf under Depot.mu is the designed order
	s.mu.Unlock()
	d.mu.Unlock()
}

func pathThenDepot(p *DataPath, d *Depot) {
	p.lock()
	d.mu.Lock() // DepotCharge: path lock strictly before depot locks
	d.mu.Unlock()
	p.unlock()
}

func twoShardsAllowed(a, b *depotShard) {
	a.mu.Lock()
	b.mu.Lock() // distinct shard instances at one rank: spill order rules
	b.mu.Unlock()
	a.mu.Unlock()
}

func shardThenDepot(s *depotShard, d *Depot) {
	s.mu.Lock()
	d.mu.Lock() // want "lock order violation: acquiring Depot.mu while holding depotShard.mu"
	d.mu.Unlock()
	s.mu.Unlock()
}

func epochThenPath(e *epochState, p *DataPath) {
	e.mu.Lock()
	p.mu.Lock() // want "lock order violation: acquiring DataPath.mu while holding epochState.mu"
	p.mu.Unlock()
	e.mu.Unlock()
}

func depotThenFbuf(d *Depot, f *Fbuf) {
	d.mu.Lock()
	f.mu.Lock() // want "lock order violation: acquiring Fbuf.mu while holding Depot.mu"
	f.mu.Unlock()
	d.mu.Unlock()
}

func depotSelfRelock(d *Depot) {
	d.mu.Lock()
	d.mu.Lock() // want "already holds this mutex"
	d.mu.Unlock()
	d.mu.Unlock()
}

// --- VM lock: one System.mu over the TLB and every page table ------------

type System struct{ mu sync.Mutex }

type PhysMem struct{ mu sync.Mutex }

func vmLockTakesFrameRefs(s *System, pm *PhysMem) {
	s.mu.Lock()
	pm.mu.Lock() // mapping changes frame refcounts under the VM lock: fine
	pm.mu.Unlock()
	s.mu.Unlock()
}

func vmLockUnderDepot(d *Depot, s *System) {
	d.mu.Lock()
	s.mu.Lock() // want "lock order violation: acquiring System.mu while holding Depot.mu"
	s.mu.Unlock()
	d.mu.Unlock()
}
