package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fbufs/internal/domain"
	"fbufs/internal/faults"
	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/obs"
	"fbufs/internal/vm"
)

// Manager is the per-host fbuf facility: it owns the fbuf region, grants
// chunks to path allocators, and implements transfer, secure, free, notice
// delivery, reclamation, and domain-termination cleanup.
//
// Concurrency model (DESIGN.md §10): the data-plane operations — Alloc,
// AllocBatch, Transfer, DupRef, Secure, Free, FreeBatch, fault handling —
// are safe under concurrent workers. State is sharded so they rarely meet on
// one lock: each DataPath guards its own free list and chunk list, each
// chunk guards its fbuf directory, each Fbuf guards its holder table, and
// the Manager keeps only two narrow locks (regionMu for the chunk table's
// writers and the uncached directory, noticeMu for the pending-notice map)
// plus atomic counters for stats. Looking an fbuf up by address (fbufAt)
// takes no lock at all. ReclaimIdle is data-plane too: it
// walks free lists under the path and fbuf locks and defers the frame
// release through the epoch protocol (epoch.go), so it never stalls an
// allocating worker. Control-plane operations — NewPath, AttachDomain,
// ClosePath, domain creation and termination, CheckInvariants — mutate the
// path/domain directories without locks and are single-threaded by
// contract: run them before workers start or after they quiesce, exactly
// as a kernel runs them under its own coarse lock.
type Manager struct {
	Sys *vm.System
	Reg *domain.Registry

	chunkPages int
	numChunks  int

	// regionMu guards freeChunks, the uncached directory, the lazily
	// allocated empty-leaf frame, and every store to the chunk table.
	// The table itself is atomic, so fbufAt reads it without the lock.
	regionMu   sync.Mutex
	chunks     []atomic.Pointer[chunk]
	freeChunks []int

	paths    map[int]*DataPath
	nextPath int

	// uncached tracks live default-allocator fbufs by base VA (regionMu).
	uncached map[vm.VA]*Fbuf

	// attached holds the attached domains indexed by ASID (the VM hands
	// ASIDs out in sequence), nil where none is attached.
	attached []*domain.Domain

	// noticeMu guards notices. Delivery pops a batch under the lock and
	// recycles after releasing it, so noticeMu is never held across the
	// recycle machinery (it is a leaf lock).
	noticeMu sync.Mutex
	// Pending deallocation notices, held at the freeing domain keyed by
	// the owning (originator) domain, delivered on the next RPC reply
	// that travels holder->owner, or explicitly when the list overflows.
	notices map[noticeKey][]*Fbuf
	// NoticeLimit is the "too many freed references have accumulated"
	// threshold beyond which an explicit notification message is sent.
	NoticeLimit int

	// emptyLeafFrame is the shared read-only page mapped on volatile
	// reads to unpermitted fbuf-region addresses ("initializes the page
	// with a leaf node that contains no data", section 3.2.4).
	emptyLeafFrame mem.FrameNum
	// EmptyLeafInit, if set, formats the empty-leaf page contents
	// (package aggregate installs its empty-node encoding).
	EmptyLeafInit func([]byte)

	// DefaultQuota is the chunk quota applied to paths that leave their
	// quota at 0 ("manager default").
	DefaultQuota int

	// TracePrefix is prepended to domain and path names registered with
	// the observer's tracer (netsim uses "A."/"B." per host).
	TracePrefix string

	// san is the fbsan runtime sanitizer, nil unless enabled (see
	// sanitizer.go). Every hook is behind this single nil check.
	san *Sanitizer

	// Path-cache residency tracking (pathcache.go). cacheMu is a leaf
	// lock (DESIGN.md §10.2): touchPath collects a candidate snapshot
	// under it and releases it before any eviction work, so it is never
	// held across another lock acquisition. cacheCap <= 0 disables the
	// cache entirely (the default), keeping every pre-existing workload
	// bit-identical.
	cacheMu     sync.Mutex
	cacheCap    int
	cachePolicy EvictionPolicy
	residents   map[int]*cacheEntry
	cacheSeq    uint64

	// admission, when non-nil, arbitrates chunk grants between tenant
	// classes (admission.go). Installed by SetAdmission before traffic
	// starts; paths opt in via SetTenant.
	admission *Admission

	// stats fields are updated with atomic adds and read through
	// Snapshot(); never read the struct directly during concurrent
	// operation.
	stats Stats

	// contention counts magazine, depot and epoch traffic (published as
	// the smp.* metric group). All fields are atomic.
	contention Contention

	// epoch is the epoch-based frame-reclamation state (epoch.go). Inert —
	// frames release eagerly — until the first RegisterEpochWorker.
	epoch epochState
}

// Contention is the SMP diagnostics counter group: the hit/refill behavior
// of per-worker magazines, depot exchanges and epoch reclamation. Host-lock
// waits are not counted; bench's simulated-SMP harness models them on
// virtual clocks.
type Contention struct {
	// MagazineHits counts allocations served from a per-worker magazine
	// stash without touching any shared lock.
	MagazineHits uint64
	// MagazineMisses counts magazine allocations that found the stash
	// empty and fell back to the shared free list.
	MagazineMisses uint64
	// MagazineRefills counts refill operations that moved at least one
	// fbuf from a shared free list into a magazine.
	MagazineRefills uint64
	// MagazineFlushes counts flush operations that returned at least one
	// fbuf from a magazine: a whole unit into the depot, or a Drain onto
	// the shared free list.
	MagazineFlushes uint64
	// DepotExchanges counts whole-magazine unit swaps with a path depot
	// (full pushed or full popped), each one constant-time under the
	// depot's leaf-rank lock.
	DepotExchanges uint64
	// DepotAssemblies counts ExchangeEmpty calls that found the unit stack
	// dry and rebuilt a unit from the sharded loose-inventory lists.
	DepotAssemblies uint64
	// DepotSpills counts ExchangeFull calls that found the unit stack at
	// its bound and spilled the unit into a shard.
	DepotSpills uint64
	// EpochParks counts frames parked by the epoch reclaim protocol
	// instead of released inline.
	EpochParks uint64
	// EpochRetires counts parked frames returned to mem by AdvanceEpoch.
	EpochRetires uint64
}

// ContentionSnapshot returns an atomic copy of the contention counters.
func (m *Manager) ContentionSnapshot() Contention {
	return Contention{
		MagazineHits:    atomic.LoadUint64(&m.contention.MagazineHits),
		MagazineMisses:  atomic.LoadUint64(&m.contention.MagazineMisses),
		MagazineRefills: atomic.LoadUint64(&m.contention.MagazineRefills),
		MagazineFlushes: atomic.LoadUint64(&m.contention.MagazineFlushes),
		DepotExchanges:  atomic.LoadUint64(&m.contention.DepotExchanges),
		DepotAssemblies: atomic.LoadUint64(&m.contention.DepotAssemblies),
		DepotSpills:     atomic.LoadUint64(&m.contention.DepotSpills),
		EpochParks:      atomic.LoadUint64(&m.contention.EpochParks),
		EpochRetires:    atomic.LoadUint64(&m.contention.EpochRetires),
	}
}

type noticeKey struct {
	holder domain.ID
	owner  domain.ID
}

// chunk is one kernel-granted slice of the fbuf region. mu guards the fbuf
// directory (fbufs) and every store to the page directory (pages); used is
// guarded by the owning path's lock for path-owned chunks and by the
// manager's regionMu for kernel-owned ones.
type chunk struct {
	index int
	base  vm.VA
	owner *DataPath // nil when free or owned by the default allocator
	mu    sync.Mutex
	fbufs []*Fbuf // carved buffers (contiguous from base)
	used  int     // pages carved so far
	// pages maps each page of the chunk to the fbuf in fbufs covering
	// it, or nil, for lock-free lookup.
	pages []atomic.Pointer[Fbuf]
}

// empty reports whether the chunk holds no fbufs.
func (c *chunk) empty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fbufs) == 0
}

// setPages points the page-directory entries of f's pages at to. Called
// with c.mu held.
func (c *chunk) setPages(f, to *Fbuf) {
	first := int(f.Base-c.base) / machine.PageSize
	for pg := first; pg < first+f.Pages; pg++ {
		c.pages[pg].Store(to)
	}
}

// Stats counts facility activity for the experiment reports.
type Stats struct {
	Allocs          uint64
	CacheHits       uint64
	CacheMisses     uint64
	Transfers       uint64
	MappingsBuilt   uint64 // per-page mapping operations during transfer
	Secures         uint64
	Frees           uint64
	Recycles        uint64
	NoticesQueued   uint64
	NoticesPiggy    uint64
	NoticesExplicit uint64
	// NoticesRing counts deallocation notices collected into a ring
	// completion entry (one coalesced batch per drain) instead of riding a
	// reply or an explicit overflow message (rings.go in internal/rings,
	// wired via Manager.CollectNotices/RetireNotices).
	NoticesRing     uint64
	FramesReclaimed uint64
	LazyRefills     uint64
	// AllocFailures counts Alloc/AllocUncached calls that failed for lack
	// of a resource (quota, region, or physical memory — see
	// IsAllocFailure). The degraded copy path in package xfer watches this
	// backpressure signal.
	AllocFailures uint64
	// PathEvictions counts path-cache demotions: a resident path whose
	// free-listed fbufs were torn down to make room (pathcache.go).
	PathEvictions uint64
	// AdmissionRejects counts chunk grants refused because the path's
	// tenant class exhausted its weighted share (admission.go). Each is
	// also an AllocFailure.
	AdmissionRejects uint64
}

// Check validates the cross-counter invariants; Manager.CheckInvariants
// calls it so any counter drift fails existing tests at the source.
//
// Check is a value method on a snapshot copy, so it is safe to call from
// any goroutine. The invariants themselves only hold at quiescence: a
// worker caught between its Allocs increment and the matching
// CacheHits/CacheMisses increment would make a mid-flight snapshot drift,
// so take the Snapshot after workers stop (or join) before checking.
func (s Stats) Check() error {
	if s.Allocs != s.CacheHits+s.CacheMisses {
		return fmt.Errorf("core: stats drift: Allocs=%d != CacheHits=%d + CacheMisses=%d",
			s.Allocs, s.CacheHits, s.CacheMisses)
	}
	if s.NoticesQueued < s.NoticesPiggy+s.NoticesExplicit+s.NoticesRing {
		return fmt.Errorf("core: stats drift: NoticesQueued=%d < NoticesPiggy=%d + NoticesExplicit=%d + NoticesRing=%d",
			s.NoticesQueued, s.NoticesPiggy, s.NoticesExplicit, s.NoticesRing)
	}
	// Every recycle is triggered by a free or by allocator teardown of a
	// buffer that was allocated (ClosePath, failed populate rollback).
	if s.Recycles > s.Frees+s.Allocs {
		return fmt.Errorf("core: stats drift: Recycles=%d > Frees=%d + Allocs=%d",
			s.Recycles, s.Frees, s.Allocs)
	}
	// Every counted failure followed an attempt that bumped Allocs first.
	if s.AllocFailures > s.Allocs {
		return fmt.Errorf("core: stats drift: AllocFailures=%d > Allocs=%d",
			s.AllocFailures, s.Allocs)
	}
	// Every admission reject surfaces as ErrAdmission, which Alloc counts
	// as an alloc failure on the way out.
	if s.AdmissionRejects > s.AllocFailures {
		return fmt.Errorf("core: stats drift: AdmissionRejects=%d > AllocFailures=%d",
			s.AdmissionRejects, s.AllocFailures)
	}
	return nil
}

// Snapshot returns a copy of the facility counters — the typed read path
// for tests, benches, and tools (the live struct is unexported so no
// consumer can drift a duplicate count). Every field is read with an
// atomic load, so Snapshot is safe during concurrent operation; it is a
// per-field snapshot, not a globally consistent cut — cross-counter
// invariants (Stats.Check) are only meaningful at quiescence.
//
// Two one-sided invariants hold even mid-flight, because every writer
// bumps Allocs before the hit/miss split and before the path's Allocated
// count, and Snapshot loads CacheHits and CacheMisses before Allocs:
// CacheHits+CacheMisses <= Allocs, and Allocs >= any
// DataPath.AllocatedCount() read before the call.
func (m *Manager) Snapshot() Stats {
	hits := atomic.LoadUint64(&m.stats.CacheHits)
	misses := atomic.LoadUint64(&m.stats.CacheMisses)
	return Stats{
		Allocs:           atomic.LoadUint64(&m.stats.Allocs),
		CacheHits:        hits,
		CacheMisses:      misses,
		Transfers:        atomic.LoadUint64(&m.stats.Transfers),
		MappingsBuilt:    atomic.LoadUint64(&m.stats.MappingsBuilt),
		Secures:          atomic.LoadUint64(&m.stats.Secures),
		Frees:            atomic.LoadUint64(&m.stats.Frees),
		Recycles:         atomic.LoadUint64(&m.stats.Recycles),
		NoticesQueued:    atomic.LoadUint64(&m.stats.NoticesQueued),
		NoticesPiggy:     atomic.LoadUint64(&m.stats.NoticesPiggy),
		NoticesExplicit:  atomic.LoadUint64(&m.stats.NoticesExplicit),
		NoticesRing:      atomic.LoadUint64(&m.stats.NoticesRing),
		FramesReclaimed:  atomic.LoadUint64(&m.stats.FramesReclaimed),
		LazyRefills:      atomic.LoadUint64(&m.stats.LazyRefills),
		AllocFailures:    atomic.LoadUint64(&m.stats.AllocFailures),
		PathEvictions:    atomic.LoadUint64(&m.stats.PathEvictions),
		AdmissionRejects: atomic.LoadUint64(&m.stats.AdmissionRejects),
	}
}

// PublishMetrics writes the facility counters and per-path gauges into
// snap, so the Stats struct stays the single source of truth.
func (m *Manager) PublishMetrics(snap obs.Snapshot) {
	c := snap.Counters
	s := m.Snapshot()
	c["core.allocs"] = s.Allocs
	c["core.cache_hits"] = s.CacheHits
	c["core.cache_misses"] = s.CacheMisses
	c["core.transfers"] = s.Transfers
	c["core.mappings_built"] = s.MappingsBuilt
	c["core.secures"] = s.Secures
	c["core.frees"] = s.Frees
	c["core.recycles"] = s.Recycles
	c["core.notices_queued"] = s.NoticesQueued
	c["core.notices_piggy"] = s.NoticesPiggy
	c["core.notices_explicit"] = s.NoticesExplicit
	c["core.notices_ring"] = s.NoticesRing
	c["core.frames_reclaimed"] = s.FramesReclaimed
	c["core.lazy_refills"] = s.LazyRefills
	c["core.alloc_failures"] = s.AllocFailures
	c["core.path_evictions"] = s.PathEvictions
	c["core.admission_rejects"] = s.AdmissionRejects
	ct := m.ContentionSnapshot()
	c["smp.magazine_hits"] = ct.MagazineHits
	c["smp.magazine_misses"] = ct.MagazineMisses
	c["smp.magazine_refills"] = ct.MagazineRefills
	c["smp.magazine_flushes"] = ct.MagazineFlushes
	c["smp.depot_exchanges"] = ct.DepotExchanges
	c["smp.depot_assemblies"] = ct.DepotAssemblies
	c["smp.depot_spills"] = ct.DepotSpills
	c["smp.epoch_parks"] = ct.EpochParks
	c["smp.epoch_retires"] = ct.EpochRetires
	for _, p := range m.paths {
		snap.Gauges[p.metricPrefix()+"free_depth"] = int64(p.FreeListLen())
		if d := p.depot; d != nil {
			snap.Gauges[p.metricPrefix()+"depot_inventory"] = int64(d.Inventory())
			for i, depth := range d.ShardDepths() {
				snap.Gauges[fmt.Sprintf("%sdepot_shard.%d.depth", p.metricPrefix(), i)] = int64(depth)
			}
		}
	}
}

// emit sends one event through the host observer, resolving the trace
// actor from the domain and the track plus generation from the fbuf. The
// single nil check is the entire disabled-path cost.
func (m *Manager) emit(kind obs.EventKind, d *domain.Domain, f *Fbuf, arg int64) {
	o := m.Sys.Obs
	if o == nil {
		return
	}
	actor, track := obs.NoActor, obs.NoTrack
	if d != nil {
		actor = int(d.ID) + m.Sys.TraceBase
	}
	var gen uint64
	if f != nil {
		gen = f.gen.Load()
		if f.Path != nil {
			track = f.Path.ID + m.Sys.TraceBase
		}
	}
	o.Emit(kind, actor, track, gen, arg)
}

// RegisterTraceNames labels every attached domain and path in the
// observer's tracer, prefixing names with prefix (kept for domains and
// paths created later). Call after attaching Sys.Obs.
func (m *Manager) RegisterTraceNames(prefix string) {
	m.TracePrefix = prefix
	o := m.Sys.Obs
	if o == nil || o.Tracer == nil {
		return
	}
	for _, d := range m.attached {
		if d != nil {
			o.Tracer.SetActor(int(d.ID)+m.Sys.TraceBase, prefix+d.Name)
		}
	}
	for _, p := range m.paths {
		o.Tracer.SetTrack(p.ID+m.Sys.TraceBase, prefix+p.Name)
	}
}

// NewManager creates the fbuf facility with default region geometry.
func NewManager(sys *vm.System, reg *domain.Registry) *Manager {
	return NewManagerGeometry(sys, reg, DefaultChunkPages, DefaultRegionChunks)
}

// NewManagerGeometry creates the facility with explicit chunk geometry.
func NewManagerGeometry(sys *vm.System, reg *domain.Registry, chunkPages, numChunks int) *Manager {
	m := &Manager{
		Sys:            sys,
		Reg:            reg,
		chunkPages:     chunkPages,
		numChunks:      numChunks,
		chunks:         make([]atomic.Pointer[chunk], numChunks),
		paths:          make(map[int]*DataPath),
		uncached:       make(map[vm.VA]*Fbuf),
		notices:        make(map[noticeKey][]*Fbuf),
		NoticeLimit:    32,
		DefaultQuota:   DefaultPathQuota,
		emptyLeafFrame: mem.NoFrame,
	}
	for i := numChunks - 1; i >= 0; i-- {
		m.freeChunks = append(m.freeChunks, i)
	}
	if sanitizerDefault {
		m.EnableSanitizer()
	}
	m.AttachDomain(reg.Kernel())
	return m
}

// RegionPages returns the size of the fbuf region in pages.
func (m *Manager) RegionPages() int { return m.chunkPages * m.numChunks }

// EmptyLeafFrames reports how many physical frames the lazily allocated
// shared empty-leaf page holds (0 or 1) — the one allocation that
// legitimately outlives a converged workload, so frame-leak accounting
// (the chaos harness) can exclude it from its baseline comparison.
func (m *Manager) EmptyLeafFrames() int {
	m.regionMu.Lock()
	defer m.regionMu.Unlock()
	if m.emptyLeafFrame == mem.NoFrame {
		return 0
	}
	return 1
}

// regionEnd returns the first VA past the region.
func (m *Manager) regionEnd() vm.VA {
	return RegionBase + vm.VA(m.RegionPages()*machine.PageSize)
}

// InRegion reports whether va lies in the fbuf region (the receiver-side
// pointer range check of section 3.2.4).
func (m *Manager) InRegion(va vm.VA) bool { return va >= RegionBase && va < m.regionEnd() }

// AttachDomain reserves the fbuf region in the domain's address space and
// registers the fault handler and the death hook. Every domain that will
// originate or receive fbufs must be attached.
func (m *Manager) AttachDomain(d *domain.Domain) {
	if m.Attached(d) {
		return
	}
	r := &vm.Region{
		Start:   RegionBase,
		Pages:   m.RegionPages(),
		Name:    "fbuf-region",
		Handler: m.fault,
	}
	if err := d.AS.AddRegion(r); err != nil {
		panic("core: fbuf region overlap: " + err.Error())
	}
	if n := d.AS.ASID + 1; n > len(m.attached) {
		m.attached = append(m.attached, make([]*domain.Domain, n-len(m.attached))...)
	}
	m.attached[d.AS.ASID] = d
	d.OnDeath(m.domainDied)
	if o := m.Sys.Obs; o != nil && o.Tracer != nil {
		o.Tracer.SetActor(int(d.ID)+m.Sys.TraceBase, m.TracePrefix+d.Name)
	}
}

// Attached reports whether the domain is attached.
func (m *Manager) Attached(d *domain.Domain) bool { return m.attachedAt(d.AS.ASID) != nil }

// attachedAt returns the domain attached with ASID asid, or nil.
func (m *Manager) attachedAt(asid int) *domain.Domain {
	if asid < len(m.attached) {
		return m.attached[asid]
	}
	return nil
}

// --- Chunk management (the kernel half of the two-level allocator) ---

// grantChunk hands a free chunk to a path allocator (or the default
// allocator when p is nil), charging the kernel-call cost.
func (m *Manager) grantChunk(p *DataPath) (*chunk, error) {
	m.regionMu.Lock()
	defer m.regionMu.Unlock()
	return m.grantChunkLocked(p)
}

// grantChunkLocked is grantChunk with regionMu already held (the uncached
// allocator holds it across chunk selection and carving).
func (m *Manager) grantChunkLocked(p *DataPath) (*chunk, error) {
	m.Sys.Sink().Charge(m.Sys.Cost.KernelCall)
	// An injected chunk-grant fault is indistinguishable from genuine
	// region exhaustion: the kernel call was paid, no chunk arrives.
	if m.Sys.FaultPlane.Should(faults.ChunkGrant) {
		return nil, ErrRegionFull
	}
	if len(m.freeChunks) == 0 {
		return nil, ErrRegionFull
	}
	idx := m.freeChunks[len(m.freeChunks)-1]
	m.freeChunks = m.freeChunks[:len(m.freeChunks)-1]
	c := &chunk{
		index: idx,
		base:  RegionBase + vm.VA(idx*m.chunkPages*machine.PageSize),
		owner: p,
		pages: make([]atomic.Pointer[Fbuf], m.chunkPages),
	}
	m.chunks[idx].Store(c)
	return c, nil
}

// releaseChunkLocked returns a drained chunk to the kernel, with regionMu
// held. The owning path's tenant (if any) gets its admission charge back:
// admission tracks chunks held, not chunks ever granted.
func (m *Manager) releaseChunkLocked(c *chunk) {
	if p := c.owner; p != nil {
		if t := p.tenant; t != nil && m.admission != nil {
			m.admission.release(t)
		}
	}
	m.chunks[c.index].Store(nil)
	m.freeChunks = append(m.freeChunks, c.index)
}

// fbufAt finds the fbuf containing va, whether path-owned or uncached: a
// range check and two atomic loads, with no lock.
func (m *Manager) fbufAt(va vm.VA) *Fbuf {
	if !m.InRegion(va) {
		return nil
	}
	page := int((va - RegionBase) / machine.PageSize)
	c := m.chunks[page/m.chunkPages].Load()
	if c == nil {
		return nil
	}
	return c.pages[page%m.chunkPages].Load()
}

// --- Fault handling: lazy refill and the volatile empty-leaf rule ---

func (m *Manager) fault(as *vm.AddrSpace, va vm.VA, write bool) error {
	d := m.attachedAt(as.ASID)
	if d == nil {
		return fmt.Errorf("unattached address space")
	}
	f := m.fbufAt(va)
	if f == nil || f.loadState() == StateFree && !f.opts.Cached {
		return m.volatileLeafOrError(as, va, write, "no fbuf at address")
	}
	f.mu.Lock()
	// Does this domain have rights to the fbuf?
	h := f.lineOf(d.ID)
	hasRights := h.refs > 0 || d == f.Originator ||
		(f.opts.Cached && h.mapped) // cached mappings persist across free
	if !hasRights {
		f.mu.Unlock()
		return m.volatileLeafOrError(as, va, write, "no permission")
	}
	if write && (d != f.Originator || f.isSecured()) {
		f.mu.Unlock()
		return fmt.Errorf("fbuf is immutable to %s", d)
	}
	page := int((va - f.Base) / machine.PageSize)
	prot := vm.ProtRead
	if d == f.Originator && !f.isSecured() {
		prot = vm.ReadWrite
	}
	if f.frames[page] == mem.NoFrame {
		// Physical memory was reclaimed (or never populated): allocate
		// and, for security, clear the frame unless it is known-zero.
		fn, err := m.allocFrame(f, false)
		if err != nil {
			f.mu.Unlock()
			return err
		}
		f.frames[page] = fn
		as.Map(f.Base+vm.VA(page*machine.PageSize), fn, prot)
		atomic.AddUint64(&m.stats.LazyRefills, 1)
		m.emit(obs.EvMappingBuilt, d, f, int64(page))
		f.setLine(d.ID, h.refs, true)
		f.mu.Unlock()
		return nil
	}
	// Frame exists but this domain's PTE is missing (e.g. mapping was
	// shot down during reclamation of a sibling page, or first touch by
	// a receiver of a cached fbuf): just map it.
	as.Map(f.Base+vm.VA(page*machine.PageSize), f.frames[page], prot)
	m.emit(obs.EvMappingBuilt, d, f, int64(page))
	f.setLine(d.ID, h.refs, true)
	f.mu.Unlock()
	return nil
}

// volatileLeafOrError implements the section 3.2.4 rule: a *read* to an
// unpermitted fbuf-region address is satisfied by mapping a shared page
// holding an empty leaf node; a write is a protection violation.
func (m *Manager) volatileLeafOrError(as *vm.AddrSpace, va vm.VA, write bool, cause string) error {
	if write {
		return fmt.Errorf("fbuf region write: %s", cause)
	}
	m.regionMu.Lock()
	if m.emptyLeafFrame == mem.NoFrame {
		fn, err := m.Sys.Mem.Alloc()
		if err != nil {
			m.regionMu.Unlock()
			return err
		}
		m.Sys.Sink().Charge(m.Sys.Cost.FrameAlloc + m.Sys.Cost.PageClear)
		m.Sys.Mem.Zero(fn)
		if m.EmptyLeafInit != nil {
			m.EmptyLeafInit(m.Sys.Mem.Frame(fn).Data)
		}
		m.emptyLeafFrame = fn
	}
	leaf := m.emptyLeafFrame
	m.regionMu.Unlock()
	as.Map(va.PageBase(), leaf, vm.ProtRead)
	return nil
}
