package core

// Path cache: bounded residency for data-path allocators.
//
// The paper's ATM network interface keeps only the 16 most recently used
// VCI data paths cached (section 5.2); activating a 17th costs a full
// allocator setup. This file reproduces that pressure as a first-class
// Manager layer: every Alloc/AllocBatch "touches" its path, and when more
// paths are resident than the configured capacity, a pluggable policy
// picks a victim whose free-listed fbufs are torn down (EvictPath). Live
// fbufs are never revoked — eviction demotes idle capacity, it does not
// break outstanding references — so a victim path stays fully usable and
// simply pays cache-miss cost (chunk grant, frame population) on its next
// allocation.
//
// Concurrency: cacheMu is a leaf lock (DESIGN.md §10.2). touchPath takes
// it only to update the residency table and snapshot the candidate list;
// it is released before any candidate's path lock is taken and before the
// eviction itself runs. cacheCap and cachePolicy are control-plane fields
// (set before workers start, like DefaultQuota), so the disabled-cache
// fast path is a single plain read.

import (
	"sort"
	"sync/atomic"

	"fbufs/internal/obs"
)

// DefaultCacheEntries mirrors the paper's 16-entry VCI path cache.
const DefaultCacheEntries = 16

// cacheEntry is one resident path in the cache's recency table.
type cacheEntry struct {
	path      *DataPath
	lastTouch uint64 // cacheSeq at the most recent touch
}

// CacheCandidate is one eviction candidate presented to a policy.
// Candidates arrive sorted by path ID, so a policy that scans in order
// and breaks ties toward the first match is deterministic regardless of
// the residency map's iteration order.
type CacheCandidate struct {
	Path      *DataPath
	LastTouch uint64 // cache sequence of the last touch (higher = more recent)
	FreePages int    // pages parked on the free list (size-aware policies)
	Pinned    bool   // exempt under the pinned-aware policy
}

// EvictionPolicy selects a victim among over-capacity cache candidates.
// Victim returns an index into cands, or -1 to decline — the cache then
// runs over capacity rather than evict (the pinned policy's answer when
// every candidate is pinned).
type EvictionPolicy interface {
	Name() string
	Victim(cands []CacheCandidate) int
}

// SetPathCache installs a bounded path cache with the given capacity and
// eviction policy. Control-plane: call before workers start, like NewPath.
// capacity <= 0 disables the cache (the default — pre-existing workloads
// stay bit-identical); a nil policy selects PolicyMRU, matching the
// most-recent-16 shape of the paper's VCI cache.
func (m *Manager) SetPathCache(capacity int, policy EvictionPolicy) {
	if policy == nil {
		policy = PolicyMRU()
	}
	m.cacheMu.Lock()
	m.cacheCap = capacity
	m.cachePolicy = policy
	m.residents = make(map[int]*cacheEntry)
	m.cacheSeq = 0
	m.cacheMu.Unlock()
}

// CacheResidents returns how many paths are currently resident (0 when
// the cache is disabled). Over-capacity counts are possible when the
// policy declines to evict.
func (m *Manager) CacheResidents() int {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	return len(m.residents)
}

// touchPath records a path activation and, when the residency table has
// grown past capacity, runs one eviction attempt. Called by Alloc and
// AllocBatch before the path lock is taken — touchPath must never run
// while any path or manager lock is held.
func (m *Manager) touchPath(p *DataPath) {
	if m.cacheCap <= 0 {
		return
	}
	m.cacheMu.Lock()
	m.cacheSeq++
	e := m.residents[p.ID]
	if e == nil {
		e = &cacheEntry{path: p}
		m.residents[p.ID] = e
	}
	e.lastTouch = m.cacheSeq
	if len(m.residents) <= m.cacheCap {
		m.cacheMu.Unlock()
		return
	}
	policy := m.cachePolicy
	cands := make([]CacheCandidate, 0, len(m.residents)-1)
	for id, ent := range m.residents {
		if id == p.ID {
			continue // the path being activated is never its own victim
		}
		cands = append(cands, CacheCandidate{
			Path:      ent.path,
			LastTouch: ent.lastTouch,
			Pinned:    ent.path.Pinned(),
		})
	}
	m.cacheMu.Unlock()
	// Deterministic candidate order regardless of map iteration.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Path.ID < cands[j].Path.ID })
	// FreeListLen takes each candidate's path lock; cacheMu is released.
	for i := range cands {
		cands[i].FreePages = cands[i].Path.FreeListLen() * cands[i].Path.fbufPages
	}
	v := policy.Victim(cands)
	if v < 0 || v >= len(cands) {
		return // policy declined: cache overflows instead
	}
	victim := cands[v].Path
	m.cacheMu.Lock()
	if _, ok := m.residents[victim.ID]; !ok {
		m.cacheMu.Unlock()
		return // raced with ClosePath or a concurrent eviction
	}
	delete(m.residents, victim.ID)
	m.cacheMu.Unlock()
	m.EvictPath(victim)
}

// cacheForget drops a path's residency entry (ClosePath tears the
// allocator down itself; a stale entry must not become a future victim).
func (m *Manager) cacheForget(id int) {
	m.cacheMu.Lock()
	delete(m.residents, id)
	m.cacheMu.Unlock()
}

// EvictPath demotes a path: every free-listed fbuf — on the shared free
// list or parked in the path's depot — is fully torn down: receiver
// mappings shot down, frames returned (epoch-deferred once workers
// register), chunks released as they drain — exactly as recycling on a
// closed path would. The demotion goes through the depot, never around it:
// depot inventory is drained as whole units and torn down like free-listed
// buffers, and live fbufs (allocated, in transfer, or awaiting
// deallocation notices) are in neither place and are untouched — eviction
// never revokes an outstanding reference, an invariant the conformance
// model cross-checks. The path remains open (and its depot stays
// installed); its next Alloc re-primes the allocator at cache-miss cost.
// Returns the number of fbufs torn down.
func (m *Manager) EvictPath(p *DataPath) int {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	freeList := p.free
	p.free = nil
	p.mu.Unlock()
	if d := p.depot; d != nil {
		freeList = append(freeList, d.drain()...)
	}
	for _, f := range freeList {
		atomic.AddUint64(&m.stats.Recycles, 1)
		m.emit(obs.EvRecycle, f.Originator, f, 0)
		if m.san != nil {
			// Same last-look canary check a closed-path recycle gets.
			m.san.verifyReuse(f)
		}
		m.teardown(f)
	}
	atomic.AddUint64(&m.stats.PathEvictions, 1)
	p.evictions.Add(1)
	m.emit(obs.EvPathEvict, p.Originator(), nil, int64(len(freeList)))
	return len(freeList)
}

// --- Eviction policies ---

// PolicyMRU evicts the most recently touched candidate (the path being
// activated is excluded before the policy runs). This is the classic MRU
// replacement rule: optimal when recent use predicts no reuse (one-shot
// sequential scans), and the baseline the overload experiment measures
// the other policies against — under skewed production traffic it keeps
// churning the same hot victim slot while cold paths squat.
func PolicyMRU() EvictionPolicy { return mruPolicy{} }

type mruPolicy struct{}

func (mruPolicy) Name() string { return "mru16" }

func (mruPolicy) Victim(cands []CacheCandidate) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.LastTouch > cands[best].LastTouch {
			best = i
		}
	}
	return best
}

// PolicyLRU evicts the least recently touched candidate — the standard
// recency bet that a path idle longest stays idle longest.
func PolicyLRU() EvictionPolicy { return lruPolicy{} }

type lruPolicy struct{}

func (lruPolicy) Name() string { return "lru" }

func (lruPolicy) Victim(cands []CacheCandidate) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.LastTouch < cands[best].LastTouch {
			best = i
		}
	}
	return best
}

// PolicySize evicts the candidate parking the most free-list pages (the
// largest instant memory win), breaking ties toward least recently used.
func PolicySize() EvictionPolicy { return sizePolicy{} }

type sizePolicy struct{}

func (sizePolicy) Name() string { return "size" }

func (sizePolicy) Victim(cands []CacheCandidate) int {
	best := -1
	for i, c := range cands {
		if best < 0 || c.FreePages > cands[best].FreePages ||
			(c.FreePages == cands[best].FreePages && c.LastTouch < cands[best].LastTouch) {
			best = i
		}
	}
	return best
}

// PolicyPinnedLRU is LRU over unpinned candidates only; it declines when
// every candidate is pinned, letting the cache run over capacity rather
// than revoke a pin (SetPinned marks latency-critical paths).
func PolicyPinnedLRU() EvictionPolicy { return pinnedLRUPolicy{} }

type pinnedLRUPolicy struct{}

func (pinnedLRUPolicy) Name() string { return "pinned-lru" }

func (pinnedLRUPolicy) Victim(cands []CacheCandidate) int {
	best := -1
	for i, c := range cands {
		if c.Pinned {
			continue
		}
		if best < 0 || c.LastTouch < cands[best].LastTouch {
			best = i
		}
	}
	return best
}

// PolicyByName resolves an eviction policy from its bench/CLI name.
func PolicyByName(name string) (EvictionPolicy, bool) {
	switch name {
	case "mru16", "mru":
		return PolicyMRU(), true
	case "lru":
		return PolicyLRU(), true
	case "size":
		return PolicySize(), true
	case "pinned-lru", "pinned":
		return PolicyPinnedLRU(), true
	}
	return nil, false
}
