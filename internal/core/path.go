package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fbufs/internal/domain"
	"fbufs/internal/faults"
	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/vm"
)

// DefaultPathQuota is the manager's default per-path chunk quota, applied
// to every path whose quota is left at 0 (Manager.DefaultQuota starts at
// this value and may be tuned per manager).
const DefaultPathQuota = 8

// DataPath is one I/O data path: the sequence of protection domains that
// buffers allocated for a particular communication endpoint will traverse
// (originator first). Each path has its own fbuf allocator with a LIFO free
// list and a kernel-imposed chunk quota.
type DataPath struct {
	ID      int
	Name    string
	Domains []*domain.Domain

	mgr       *Manager
	opts      Options
	fbufPages int

	// mu guards the shared allocator state: the free list, the chunk
	// list, the closed flag, and Allocated. It is the path's one shared
	// lock; per-worker magazines exist to keep steady-state alloc/free
	// off it entirely.
	mu     sync.Mutex
	free   []*Fbuf // LIFO: most recently freed first (most likely resident)
	chunks []*chunk

	// depot, when non-nil, is the central magazine depot between this
	// path's free list and its workers' magazines (depot.go). Control-plane:
	// installed by EnableDepot before workers start; a path without one
	// has no magazines.
	depot *Depot

	// quota is the chunk limit (0 = manager default, negative = unlimited).
	// Atomic because SetQuota is a kernel control knob callers may turn
	// while allocators are running: Alloc reads it under the path lock but
	// SetQuota writes it without.
	quota atomic.Int64

	// tenant, when non-nil, charges this path's chunk grants to an
	// admission-control class (see admission.go). Control-plane: set it
	// via SetTenant before traffic starts, like NewPath itself.
	tenant *TenantClass

	// pinned marks the path exempt from path-cache eviction under the
	// pinned-aware policy.
	pinned atomic.Bool

	// evictions counts path-cache demotions of this path.
	evictions atomic.Uint64

	closed bool

	// Stats. Allocated is read and written atomically: the magazines'
	// deferred-counter merge adds to it during a depot exchange without
	// holding the path lock, so a plain lock-guarded field would race with
	// Alloc's own increment (the PR 4 latent bug). Read it via
	// AllocatedCount.
	Allocated uint64
}

// NewPath creates a data path. fbufPages is the fixed fbuf size for the
// path's allocator (PDU- or ADU-sized, chosen by the endpoint). The first
// domain is the originator; all domains are attached to the fbuf region.
func (m *Manager) NewPath(name string, opts Options, fbufPages int, domains ...*domain.Domain) (*DataPath, error) {
	if len(domains) == 0 {
		return nil, fmt.Errorf("core: path %q needs at least one domain", name)
	}
	if fbufPages <= 0 || fbufPages > m.chunkPages {
		return nil, fmt.Errorf("core: path %q fbuf size %d pages outside (0,%d]", name, fbufPages, m.chunkPages)
	}
	for _, d := range domains {
		if d.Dead() {
			return nil, ErrDeadDomain
		}
		m.AttachDomain(d)
	}
	p := &DataPath{
		ID:        m.nextPath,
		Name:      name,
		Domains:   domains,
		mgr:       m,
		opts:      opts,
		fbufPages: fbufPages,
	}
	m.nextPath++
	m.paths[p.ID] = p
	if o := m.Sys.Obs; o != nil && o.Tracer != nil {
		o.Tracer.SetTrack(p.ID+m.Sys.TraceBase, m.TracePrefix+name)
	}
	return p, nil
}

// Options returns the path's fbuf options.
func (p *DataPath) Options() Options { return p.opts }

// FbufPages returns the allocator's fixed fbuf size in pages.
func (p *DataPath) FbufPages() int { return p.fbufPages }

// Originator returns the path's first domain.
func (p *DataPath) Originator() *domain.Domain { return p.Domains[0] }

// SetQuota adjusts the kernel-imposed chunk limit: a positive value is an
// explicit limit, 0 restores the manager default, negative disables the
// quota entirely. Safe to call while allocators are running.
func (p *DataPath) SetQuota(chunks int) { p.quota.Store(int64(chunks)) }

// Quota returns the effective chunk limit: the explicit per-path value
// when set, otherwise the manager default. A return of 0 means the quota
// is disabled (SetQuota was given a negative value, or the resolved
// default is non-positive). Note the asymmetry with SetQuota's input,
// where 0 means "use the manager default" — only negative disables.
func (p *DataPath) Quota() int {
	q := int(p.quota.Load())
	if q == 0 {
		q = p.mgr.DefaultQuota
	}
	if q < 0 {
		return 0
	}
	return q
}

// SetTenant assigns the path to an admission-control tenant class; chunk
// grants are charged against the class's weighted share once the manager
// has an Admission controller installed. Control-plane: call before
// traffic starts (grants made earlier are never charged).
func (p *DataPath) SetTenant(t *TenantClass) { p.tenant = t }

// SetPinned marks or unmarks the path as exempt from path-cache eviction
// under the pinned-aware policy.
func (p *DataPath) SetPinned(v bool) { p.pinned.Store(v) }

// Pinned reports the eviction-exemption mark.
func (p *DataPath) Pinned() bool { return p.pinned.Load() }

// Evictions returns how many times the path cache demoted this path.
func (p *DataPath) Evictions() uint64 { return p.evictions.Load() }

// isClosed reads the closed flag under the path lock.
func (p *DataPath) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// FreeListLen returns the current free-list depth (tests, reclamation).
func (p *DataPath) FreeListLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// AllocatedCount returns the path's lifetime allocation count (atomic —
// the concurrency-safe read of the Allocated field).
func (p *DataPath) AllocatedCount() uint64 {
	return atomic.LoadUint64(&p.Allocated)
}

// metricPrefix names this path's metrics uniquely across hosts.
func (p *DataPath) metricPrefix() string {
	return fmt.Sprintf("path.%d.%s.", p.ID+p.mgr.Sys.TraceBase, p.Name)
}

// Alloc allocates an fbuf from the path allocator on behalf of the
// originator. In the cached steady state this pops the LIFO free list and
// performs no mapping work at all; on a miss it carves a new fbuf from the
// path's current chunk, requesting a new chunk from the kernel when needed.
func (p *DataPath) Alloc() (*Fbuf, error) {
	m := p.mgr
	if p.isClosed() {
		return nil, ErrPathClosed
	}
	if p.Originator().Dead() {
		return nil, ErrDeadDomain
	}
	// An injected path-alloc fault models the kernel refusing this path a
	// buffer right now (e.g. a tightened quota or an administrative freeze)
	// — same error, same recovery obligation on the caller. It sits at the
	// Alloc boundary, ahead of the free list, so a drought can be injected
	// even while previously-carved buffers are circulating.
	if m.Sys.FaultPlane.Should(faults.PathAlloc) {
		atomic.AddUint64(&m.stats.AllocFailures, 1)
		m.emit(obs.EvAllocFailed, p.Originator(), nil, 0)
		return nil, ErrQuota
	}
	// Path-cache residency: an allocation is the path's "use". Touching
	// may demote another path; it never takes this path's lock.
	m.touchPath(p)
	o := m.Sys.Obs
	if o != nil {
		o.SpanBegin(span.StageAlloc, "core", int(p.Originator().ID)+m.Sys.TraceBase, int64(p.fbufPages))
		defer o.SpanEnd()
	}
	p.mu.Lock()
	atomic.AddUint64(&m.stats.Allocs, 1)
	atomic.AddUint64(&p.Allocated, 1)
	if p.opts.Cached {
		if n := len(p.free); n > 0 {
			var f *Fbuf
			if p.opts.FIFO {
				f = p.free[0]
				p.free = p.free[1:]
			} else {
				f = p.free[n-1]
				p.free = p.free[:n-1]
			}
			depth := len(p.free)
			p.mu.Unlock()
			if m.san != nil {
				m.san.verifyReuse(f)
			}
			atomic.AddUint64(&m.stats.CacheHits, 1)
			f.resetLive(p.Originator())
			p.observeAlloc(o, f, true, depth)
			return f, nil
		}
	}
	// Both the cached miss and the uncached path pay the full carve.
	atomic.AddUint64(&m.stats.CacheMisses, 1)
	depth := len(p.free)
	f, err := p.carveLocked()
	if err != nil {
		if IsAllocFailure(err) {
			atomic.AddUint64(&m.stats.AllocFailures, 1)
			m.emit(obs.EvAllocFailed, p.Originator(), nil, 0)
		}
		return nil, err
	}
	p.observeAlloc(o, f, false, depth)
	return f, nil
}

// observeAlloc emits the allocation events; o == nil (tracing disabled)
// costs one branch. depth is the free-list depth captured under the path
// lock.
func (p *DataPath) observeAlloc(o *obs.Observer, f *Fbuf, hit bool, depth int) {
	if o == nil {
		return
	}
	m := p.mgr
	m.emit(obs.EvAlloc, p.Originator(), f, int64(f.Pages))
	if hit {
		m.emit(obs.EvCacheHit, p.Originator(), f, int64(depth))
	} else {
		m.emit(obs.EvCacheMiss, p.Originator(), f, 0)
	}
}

// carveLocked builds a brand-new fbuf from chunk space. It is called with
// the path lock held and releases it before population work, whose failure
// rollback re-enters the recycle machinery (which takes the lock itself).
func (p *DataPath) carveLocked() (*Fbuf, error) {
	m := p.mgr
	var c *chunk
	for _, cc := range p.chunks {
		if cc.used+p.fbufPages <= m.chunkPages {
			c = cc
			break
		}
	}
	if c == nil {
		if q := p.Quota(); q > 0 && len(p.chunks) >= q {
			p.mu.Unlock()
			return nil, ErrQuota
		}
		// Per-tenant admission sits between the per-path quota and the
		// kernel grant: a path inside its own quota can still be refused
		// because its tenant class's weighted share of the region is spent.
		if t := p.tenant; t != nil && m.admission != nil {
			if !m.admission.admit(t) {
				p.mu.Unlock()
				atomic.AddUint64(&m.stats.AdmissionRejects, 1)
				m.emit(obs.EvAdmissionReject, p.Originator(), nil, int64(p.ID))
				return nil, ErrAdmission
			}
		}
		var err error
		c, err = m.grantChunk(p)
		if err != nil {
			if t := p.tenant; t != nil && m.admission != nil {
				m.admission.release(t) // grant failed: refund the charge
			}
			p.mu.Unlock()
			return nil, err
		}
		p.chunks = append(p.chunks, c)
	}
	f := newFbuf(m, c.base+vm.VA(c.used*machine.PageSize), p.fbufPages, p, p.Originator(), p.opts)
	c.used += p.fbufPages
	c.mu.Lock()
	c.fbufs = append(c.fbufs, f)
	c.setPages(f, f)
	c.mu.Unlock()
	p.mu.Unlock()
	m.emit(obs.EvCarve, p.Originator(), f, int64(p.fbufPages))
	if p.opts.Populate {
		if err := m.populate(f); err != nil {
			// Partial population (physical memory exhausted): release
			// what was attached rather than leaking a live fbuf.
			f.mu.Lock()
			f.clearRefs()
			f.mu.Unlock()
			f.total.Store(0)
			m.recycle(f)
			return nil, err
		}
	}
	return f, nil
}

// AllocBatch fills out with len(out) freshly allocated fbufs, amortizing
// one path-lock acquisition over all the cached free-list pops: per-fbuf
// events, stats, and fault-plane consultations are identical to calling
// Alloc in a loop, but k steady-state allocations cost one shared-lock
// round trip instead of k. Slots that cannot be served from the free list
// fall through to the normal carve path. It returns the number of slots
// filled; on error the first n slots remain allocated, exactly like a
// caller's Alloc loop that stops at the failure.
func (p *DataPath) AllocBatch(out []*Fbuf) (int, error) {
	m := p.mgr
	if len(out) == 0 {
		return 0, nil
	}
	if p.isClosed() {
		return 0, ErrPathClosed
	}
	if p.Originator().Dead() {
		return 0, ErrDeadDomain
	}
	// One residency touch covers the whole batch (same recency signal an
	// Alloc loop's first iteration would give the cache).
	m.touchPath(p)
	o := m.Sys.Obs
	filled := 0
	if p.opts.Cached {
		var ferr error
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return 0, ErrPathClosed
		}
		// Pops go straight into out; pop i leaves depth-i-1 fbufs on
		// the free list.
		depth := len(p.free)
		for filled < len(out) && len(p.free) > 0 {
			// Per-item fault consultation, same stream order as an
			// Alloc loop (the plane never observes events, so batching
			// cannot shift any fault schedule).
			if m.Sys.FaultPlane.Should(faults.PathAlloc) {
				ferr = ErrQuota
				break
			}
			atomic.AddUint64(&m.stats.Allocs, 1)
			atomic.AddUint64(&p.Allocated, 1)
			if p.opts.FIFO {
				out[filled] = p.free[0]
				p.free = p.free[1:]
			} else {
				out[filled] = p.free[len(p.free)-1]
				p.free = p.free[:len(p.free)-1]
			}
			filled++
		}
		p.mu.Unlock()
		// Reuse verification, state reset, and events happen outside the
		// lock, in pop order.
		for i, f := range out[:filled] {
			if m.san != nil {
				m.san.verifyReuse(f)
			}
			atomic.AddUint64(&m.stats.CacheHits, 1)
			f.resetLive(p.Originator())
			p.observeAlloc(o, f, true, depth-i-1)
		}
		if ferr != nil {
			atomic.AddUint64(&m.stats.AllocFailures, 1)
			m.emit(obs.EvAllocFailed, p.Originator(), nil, 0)
			return filled, ferr
		}
	}
	// Remaining slots pay the full carve (or are uncached).
	for filled < len(out) {
		f, err := p.Alloc()
		if err != nil {
			return filled, err
		}
		out[filled] = f
		filled++
	}
	return filled, nil
}

// AllocUncached allocates from the default allocator: an fbuf belonging to
// no data path, used when the I/O data path cannot be determined at
// allocation time ("this allocator returns uncached fbufs, and as a
// consequence, VM map manipulations are necessary for each domain
// transfer", section 5.2).
func (m *Manager) AllocUncached(orig *domain.Domain, pages int, opts Options) (*Fbuf, error) {
	return m.AllocUncachedFill(orig, pages, opts, 0)
}

// AllocUncachedFill is AllocUncached with a fill hint from a trusted
// caller: the first fill bytes are about to be completely overwritten
// (e.g. by device DMA), so pages wholly inside that prefix need no
// security clear — only the remainder is zeroed. This is the partial-page
// clearing the paper prices at "between 42 and 99 us/page ... depending on
// what percentage of each page needed to be cleared". Untrusted callers
// must not be offered the hint.
func (m *Manager) AllocUncachedFill(orig *domain.Domain, pages int, opts Options, fill int) (*Fbuf, error) {
	if orig.Dead() {
		return nil, ErrDeadDomain
	}
	if !m.Attached(orig) {
		return nil, ErrNotAttached
	}
	if pages <= 0 || pages > m.chunkPages {
		return nil, fmt.Errorf("core: uncached fbuf size %d pages outside (0,%d]", pages, m.chunkPages)
	}
	opts.Cached = false
	atomic.AddUint64(&m.stats.Allocs, 1)
	atomic.AddUint64(&m.stats.CacheMisses, 1)
	// The default allocator draws VA space chunk-at-a-time too, but each
	// uncached fbuf gets a fresh chunk slot lifecycle: we allocate a VA
	// range (charged) within a kernel-owned chunk. The whole selection and
	// carve runs under regionMu — the default allocator is the kernel's
	// own, so it is serialized like any kernel service.
	m.Sys.Sink().Charge(m.Sys.Cost.VAAlloc)
	m.regionMu.Lock()
	var c *chunk
	for i := range m.chunks {
		if cc := m.chunks[i].Load(); cc != nil && cc.owner == nil && cc.used+pages <= m.chunkPages {
			c = cc
			break
		}
	}
	if c == nil {
		var err error
		c, err = m.grantChunkLocked(nil)
		if err != nil {
			m.regionMu.Unlock()
			if IsAllocFailure(err) {
				atomic.AddUint64(&m.stats.AllocFailures, 1)
				m.emit(obs.EvAllocFailed, orig, nil, 0)
			}
			return nil, err
		}
	}
	f := newFbuf(m, c.base+vm.VA(c.used*machine.PageSize), pages, nil, orig, opts)
	c.used += pages
	c.mu.Lock()
	c.fbufs = append(c.fbufs, f)
	c.setPages(f, f)
	c.mu.Unlock()
	m.uncached[f.Base] = f
	m.regionMu.Unlock()
	m.emit(obs.EvAlloc, orig, f, int64(pages))
	m.emit(obs.EvCacheMiss, orig, f, 0)
	if opts.Populate {
		if err := m.populateFill(f, fill); err != nil {
			f.mu.Lock()
			f.clearRefs()
			f.mu.Unlock()
			f.total.Store(0)
			m.recycle(f)
			if IsAllocFailure(err) {
				atomic.AddUint64(&m.stats.AllocFailures, 1)
				m.emit(obs.EvAllocFailed, orig, nil, 0)
			}
			return nil, err
		}
	}
	return f, nil
}

// populate eagerly attaches frames and maps them writable in the
// originator, clearing dirty frames unless the allocator opted out. The
// fbuf itself holds one reference per frame (so data survives even when no
// domain has a mapping yet — receivers of integrated transfers map
// lazily); each domain mapping holds its own additional reference.
func (m *Manager) populate(f *Fbuf) error { return m.populateFill(f, 0) }

// populateFill is populate with the trusted-fill hint: pages entirely
// within the first fill bytes will be fully overwritten and skip clearing.
func (m *Manager) populateFill(f *Fbuf, fill int) error {
	as := f.Originator.AS
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.frames {
		if f.frames[i] != mem.NoFrame {
			continue
		}
		skipClear := (i+1)*machine.PageSize <= fill
		fn, err := m.allocFrame(f, skipClear)
		if err != nil {
			return err
		}
		f.frames[i] = fn
		as.Map(f.Base+vm.VA(i*machine.PageSize), fn, vm.ReadWrite)
	}
	f.setLine(f.Originator.ID, f.lineOf(f.Originator.ID).refs, true)
	return nil
}

// allocFrame takes a frame for the fbuf (the fbuf's ownership reference),
// clearing it per policy.
func (m *Manager) allocFrame(f *Fbuf, skipClear bool) (mem.FrameNum, error) {
	fn, err := m.Sys.AllocFrame()
	if err != nil {
		return mem.NoFrame, err
	}
	m.Sys.Sink().Charge(m.Sys.Cost.FrameAlloc)
	fr := m.Sys.Mem.Frame(fn)
	if !fr.Zeroed && !f.opts.NoClear && !skipClear {
		m.Sys.Sink().Charge(m.Sys.Cost.PageClear)
		m.Sys.Mem.Zero(fn)
	}
	return fn, nil
}

// releaseFrames drops the fbuf's ownership references (teardown or
// reclamation); mappings must already be gone for the frames to actually
// free. The release is epoch-deferred once workers register (epoch.go), so
// teardown from domainDied, ClosePath, or EvictPath never returns a frame
// to mem under an allocating worker's feet.
func (m *Manager) releaseFrames(f *Fbuf) {
	for i, fn := range f.frames {
		if fn == mem.NoFrame {
			continue
		}
		m.deferFrameFree(fn)
		f.frames[i] = mem.NoFrame
	}
}

// Transfer passes the fbuf from one domain to another with copy semantics:
// the sender keeps its reference (Free it explicitly when done), the
// receiver gains one. For non-volatile fbufs the first transfer out of the
// originator eagerly removes the originator's write permission. Mapping
// into the receiver happens only if the receiver has no (possibly cached)
// mapping already — the cached steady state transfers with zero VM work.
func (m *Manager) Transfer(f *Fbuf, from, to *domain.Domain) error {
	if s := f.loadState(); s != StateLive {
		return fmt.Errorf("core: transfer of %s fbuf %#x", s, uint64(f.Base))
	}
	if !f.HeldBy(from) {
		return ErrNotHolder
	}
	if to.Dead() {
		return ErrDeadDomain
	}
	if !m.Attached(to) {
		return ErrNotAttached
	}
	if o := m.Sys.Obs; o != nil {
		o.SpanBegin(span.StageMap, "core", int(to.ID)+m.Sys.TraceBase, int64(f.Pages))
		defer o.SpanEnd()
	}
	atomic.AddUint64(&m.stats.Transfers, 1)
	m.emit(obs.EvTransfer, from, f, int64(to.ID)+int64(m.Sys.TraceBase))
	// Eager immutability enforcement for non-volatile fbufs — a no-op
	// when the originator is trusted (the kernel), matching section 2.1.3.
	if !f.opts.Volatile && !f.isSecured() && from == f.Originator && !f.Originator.Trusted {
		m.secure(f)
	}
	// Receiver mapping policy: a non-integrated transfer passes the fbuf
	// list through the kernel, which maps the pages into the receiver
	// eagerly (the Table 1 measurement). An integrated transfer involves
	// no kernel at all — the receiver's mappings are established lazily
	// by page faults on first touch, which is why a domain that never
	// touches the message body (the paper's UDP-in-netserver case) pays
	// no mapping cost whatsoever.
	f.mu.Lock()
	h := f.lineOf(to.ID)
	if from != to && !h.mapped && !f.opts.Integrated {
		prot := vm.ProtRead
		for i := 0; i < f.Pages; i++ {
			if f.frames[i] == mem.NoFrame {
				continue // lazy: receiver faults will fill
			}
			to.AS.Map(f.Base+vm.VA(i*machine.PageSize), f.frames[i], prot)
			atomic.AddUint64(&m.stats.MappingsBuilt, 1)
			m.emit(obs.EvMappingBuilt, to, f, int64(i))
		}
		h.mapped = true
	}
	f.setLine(to.ID, h.refs+1, h.mapped)
	f.mu.Unlock()
	f.total.Add(1)
	return nil
}

// DupRef adds another reference for a domain that already holds one —
// local bookkeeping used by the aggregate layer when a split leaves two
// messages referencing the same fbuf. It is free: reference counts are
// per-domain state, not VM state.
func (m *Manager) DupRef(f *Fbuf, d *domain.Domain) error {
	if s := f.loadState(); s != StateLive {
		return fmt.Errorf("core: dupref of %s fbuf", s)
	}
	f.mu.Lock()
	h := f.lineOf(d.ID)
	if h.refs == 0 {
		f.mu.Unlock()
		return ErrNotHolder
	}
	f.setLine(d.ID, h.refs+1, h.mapped)
	f.mu.Unlock()
	f.total.Add(1)
	return nil
}

// FbufAt returns the live or cached fbuf containing va, or nil. The
// aggregate layer uses it for the section 3.2.4 pointer validation during
// integrated-DAG traversal.
func (m *Manager) FbufAt(va vm.VA) *Fbuf { return m.fbufAt(va) }

// Secure raises the protection on the fbuf in the originator domain at a
// receiver's request (the lazy alternative for volatile fbufs). It is a
// no-op when the originator is trusted or the fbuf is already secured.
func (m *Manager) Secure(f *Fbuf, requester *domain.Domain) error {
	if s := f.loadState(); s != StateLive {
		return fmt.Errorf("core: secure of %s fbuf", s)
	}
	if !f.HeldBy(requester) {
		return ErrNotHolder
	}
	if f.isSecured() || f.Originator.Trusted {
		return nil
	}
	m.Sys.Sink().Charge(m.Sys.Cost.KernelCall)
	m.secure(f)
	return nil
}

// secure removes the originator's write permission page by page. Two
// workers racing here both walk the pages (idempotent SetProt) and both
// set the secured bit; the protection state converges either way.
func (m *Manager) secure(f *Fbuf) {
	if o := m.Sys.Obs; o != nil {
		o.SpanBegin(span.StageSecure, "core", int(f.Originator.ID)+m.Sys.TraceBase, int64(f.Pages))
		defer o.SpanEnd()
	}
	as := f.Originator.AS
	f.mu.Lock()
	for i := 0; i < f.Pages; i++ {
		if f.frames[i] == mem.NoFrame {
			continue
		}
		as.SetProt(f.Base+vm.VA(i*machine.PageSize), vm.ProtRead)
	}
	f.mu.Unlock()
	f.setSecured(true)
	atomic.AddUint64(&m.stats.Secures, 1)
	m.emit(obs.EvSecure, f.Originator, f, int64(f.Pages))
}

// Free drops one of d's references to the fbuf. When the last reference
// anywhere is dropped the fbuf is recycled — immediately if the last freer
// is the originator (whose allocator owns the buffer), otherwise after the
// deallocation notice reaches the owning domain (piggybacked on the next
// RPC reply, or pushed explicitly when too many accumulate).
func (m *Manager) Free(f *Fbuf, d *domain.Domain) error {
	return m.freeOne(f, d, nil)
}

// FreeBatch drops one of d's references on each fbuf, amortizing shared-lock
// traffic over the batch: per-fbuf events, stats, notice behavior, and
// recycle order are identical to calling Free on each fbuf in sequence, but
// recycles landing on one cached path's free list are pushed together under
// a single path-lock acquisition. On the first error the batch stops (like a
// caller's Free loop would), with earlier fbufs already freed.
func (m *Manager) FreeBatch(fs []*Fbuf, d *domain.Domain) error {
	var batch recycleBatch
	for _, f := range fs {
		if err := m.freeOne(f, d, &batch); err != nil {
			m.flushRecycleBatch(&batch)
			return err
		}
	}
	m.flushRecycleBatch(&batch)
	return nil
}

// freeOne is Free with optional recycle batching (batch may be nil).
func (m *Manager) freeOne(f *Fbuf, d *domain.Domain, batch *recycleBatch) error {
	if s := f.loadState(); s != StateLive {
		return fmt.Errorf("core: free of %s fbuf %#x", s, uint64(f.Base))
	}
	if o := m.Sys.Obs; o != nil {
		o.SpanBegin(span.StageFree, "core", int(d.ID)+m.Sys.TraceBase, int64(f.Pages))
		defer o.SpanEnd()
	}
	f.mu.Lock()
	h := f.lineOf(d.ID)
	if h.refs == 0 {
		f.mu.Unlock()
		return ErrNotHolder
	}
	atomic.AddUint64(&m.stats.Frees, 1)
	m.emit(obs.EvFree, d, f, 0)
	f.setLine(d.ID, h.refs-1, h.mapped)
	f.total.Add(-1)
	// Uncached fbufs tear down the receiver mapping as soon as the
	// receiver is done (cached ones keep it for reuse).
	if h.refs == 1 && !f.opts.Cached && d != f.Originator && h.mapped {
		m.unmapFromLocked(f, d)
	}
	last := f.held == 0
	f.mu.Unlock()
	if !last {
		return nil
	}
	// Last reference anywhere. The notice indirection exists so the
	// owning domain's allocator learns about the free; when there is no
	// live owning allocator to inform (default-allocator fbufs, dead
	// originator, closed path) the kernel recycles directly.
	if d == f.Originator || f.Path == nil || f.Originator.Dead() || f.Path.isClosed() {
		m.recycleB(f, batch)
		return nil
	}
	f.setState(StateDrainingNotice)
	k := noticeKey{holder: d.ID, owner: f.Originator.ID}
	m.noticeMu.Lock()
	m.notices[k] = append(m.notices[k], f)
	n := len(m.notices[k])
	var overflow []*Fbuf
	if n >= m.NoticeLimit {
		overflow = m.notices[k]
		delete(m.notices, k)
	}
	m.noticeMu.Unlock()
	atomic.AddUint64(&m.stats.NoticesQueued, 1)
	m.emit(obs.EvNoticeQueued, d, f, int64(n))
	if overflow != nil {
		// Explicit notification message: costs a kernel call's worth
		// of work on this host (it is an intra-host message).
		m.Sys.Sink().Charge(m.Sys.Cost.KernelCall)
		atomic.AddUint64(&m.stats.NoticesExplicit, uint64(len(overflow)))
		m.emit(obs.EvNoticeExplicit, d, nil, int64(len(overflow)))
		for _, ff := range overflow {
			m.recycle(ff)
		}
	}
	return nil
}

// DeliverNotices is the ipc.ReplyHook glue: when a reply travels from
// `replier` back to `caller`, any deallocation notices held at the replier
// for fbufs owned by the caller ride along for free.
func (m *Manager) DeliverNotices(replier, caller *domain.Domain) {
	if o := m.Sys.Obs; o != nil {
		o.SpanBegin(span.StageNotice, "core", int(replier.ID)+m.Sys.TraceBase, 0)
		defer o.SpanEnd()
	}
	batch := m.popNotices(noticeKey{holder: replier.ID, owner: caller.ID})
	if n := len(batch); n > 0 {
		atomic.AddUint64(&m.stats.NoticesPiggy, uint64(n))
		m.emit(obs.EvNoticePiggy, replier, nil, int64(n))
		for _, f := range batch {
			m.recycle(f)
		}
	}
}

// CollectNotices pops the pending deallocation notices held at holder for
// fbufs owned by owner and counts them as ring-coalesced: the batch rides a
// single ring completion entry instead of a reply, so no per-descriptor
// marshalling is charged. The caller must hand the returned batch to
// RetireNotices on the owner's side of the ring (directly if the
// completion ring is full).
func (m *Manager) CollectNotices(holder, owner *domain.Domain) []*Fbuf {
	batch := m.popNotices(noticeKey{holder: holder.ID, owner: owner.ID})
	if n := len(batch); n > 0 {
		atomic.AddUint64(&m.stats.NoticesRing, uint64(n))
		m.emit(obs.EvNoticeRing, holder, nil, int64(n))
	}
	return batch
}

// RetireNotices recycles a batch previously popped by CollectNotices — the
// owner side draining a coalesced-notice completion entry. Recycling
// handles dead originators and closed paths the same way the piggyback
// path does, so crash interplay is unchanged.
func (m *Manager) RetireNotices(batch []*Fbuf) {
	if len(batch) == 0 {
		return
	}
	if o := m.Sys.Obs; o != nil {
		o.SpanBegin(span.StageNotice, "core", obs.NoActor, int64(len(batch)))
		defer o.SpanEnd()
	}
	for _, f := range batch {
		m.recycle(f)
	}
}

// popNotices removes and returns the pending notice batch for k.
func (m *Manager) popNotices(k noticeKey) []*Fbuf {
	m.noticeMu.Lock()
	b := m.notices[k]
	delete(m.notices, k)
	m.noticeMu.Unlock()
	return b
}

// recycleBatch collects same-path cached recycles during FreeBatch so all
// free-list pushes land under one path-lock acquisition. The path is
// latched on the first eligible recycle; fbufs of other paths fall back to
// immediate per-fbuf pushes.
type recycleBatch struct {
	path  *DataPath
	fbufs []*Fbuf
}

// recycle returns an fbuf to its allocator. Cached fbufs go to the path's
// LIFO free list with mappings intact and the originator's write permission
// restored; uncached fbufs are fully torn down.
func (m *Manager) recycle(f *Fbuf) { m.recycleB(f, nil) }

// recycleB is recycle with optional free-list push batching (FreeBatch).
func (m *Manager) recycleB(f *Fbuf, batch *recycleBatch) {
	atomic.AddUint64(&m.stats.Recycles, 1)
	m.emit(obs.EvRecycle, f.Originator, f, 0)
	if m.san != nil {
		// A free-listed fbuf being torn down (ClosePath, dead originator)
		// gets its canaries verified one last time before the frames go.
		m.san.verifyReuse(f)
	}
	p := f.Path
	if p != nil && p.opts.Cached && !f.Originator.Dead() {
		if batch != nil {
			if batch.path == nil && !p.isClosed() {
				batch.path = p
			}
			if batch.path == p {
				m.resetForFreeList(f)
				if m.san != nil {
					m.san.poisonFree(f)
				}
				batch.fbufs = append(batch.fbufs, f)
				return
			}
		}
		p.mu.Lock()
		if !p.closed {
			m.resetForFreeList(f)
			p.free = append(p.free, f) // LIFO push
			if m.san != nil {
				m.san.poisonFree(f)
			}
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
	// Full teardown (uncached, or path closed / originator dead).
	m.teardown(f)
}

// teardown fully releases a recycled fbuf: receiver mappings are shot
// down, frames returned, VA space freed, and the chunk released when it
// drains. Shared by recycleB's uncached/closed branch and by path-cache
// eviction (EvictPath), which demotes free-listed fbufs without closing
// the path. The caller owns the fbuf exclusively.
func (m *Manager) teardown(f *Fbuf) {
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

// resetForFreeList restores the originator's write permission and resets
// the fbuf to its free-list state. The caller owns the fbuf exclusively
// (its last reference was just dropped).
func (m *Manager) resetForFreeList(f *Fbuf) {
	if f.isSecured() {
		// "write permissions are returned to the originator"
		as := f.Originator.AS
		f.mu.Lock()
		for i := 0; i < f.Pages; i++ {
			if f.frames[i] == mem.NoFrame {
				continue
			}
			as.SetProt(f.Base+vm.VA(i*machine.PageSize), vm.ReadWrite)
		}
		f.mu.Unlock()
		f.setSecured(false)
	}
	f.setState(StateFree)
	f.mu.Lock()
	f.clearRefs()
	f.mu.Unlock()
	f.total.Store(0)
}

// flushRecycleBatch pushes all deferred recycles onto the latched path's
// free list under one lock acquisition.
func (m *Manager) flushRecycleBatch(b *recycleBatch) {
	if b.path == nil || len(b.fbufs) == 0 {
		return
	}
	p := b.path
	p.mu.Lock()
	p.free = append(p.free, b.fbufs...) // LIFO push, batch order preserved
	p.mu.Unlock()
	b.fbufs = nil
}

// unmapFromLocked tears down all of the fbuf's PTEs in d. The fbuf's own
// frame references keep the frames alive. Called with f.mu held.
func (m *Manager) unmapFromLocked(f *Fbuf, d *domain.Domain) {
	for i := 0; i < f.Pages; i++ {
		if f.frames[i] == mem.NoFrame {
			continue
		}
		d.AS.Unmap(f.Base + vm.VA(i*machine.PageSize))
	}
	f.setLine(d.ID, f.lineOf(d.ID).refs, false)
}

// unmapAllLocked tears down the fbuf's PTEs in every live domain that has
// mappings of it, in holder-table order. Called with f.mu held.
func (m *Manager) unmapAllLocked(f *Fbuf) {
	var buf [8]domain.ID
	for _, id := range f.mappedIDs(buf[:0]) {
		if d := m.domainByID(id); d != nil && !d.Dead() {
			m.unmapFromLocked(f, d)
		}
	}
}

// removeFromChunk retires a torn-down fbuf; when its chunk drains the chunk
// returns to the kernel. A carve may reuse a drained chunk until the chunk
// leaves its path's list, so the call that drained it judges the drain
// again under the lock its carves take (the owning path's, or regionMu for
// a kernel-owned chunk), and only the call that unlists the chunk releases
// it. Only regionMu and chunk.mu are taken under the path lock, and only
// chunk.mu under those.
func (m *Manager) removeFromChunk(f *Fbuf) {
	idx := int((f.Base - RegionBase) / vm.VA(m.chunkPages*machine.PageSize))
	m.regionMu.Lock()
	delete(m.uncached, f.Base)
	m.regionMu.Unlock()
	c := m.chunks[idx].Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	if i := slices.Index(c.fbufs, f); i >= 0 {
		c.fbufs = slices.Delete(c.fbufs, i, i+1)
		c.setPages(f, nil)
	}
	drained := len(c.fbufs) == 0
	c.mu.Unlock()
	if !drained {
		return
	}
	if p := c.owner; p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		i := slices.Index(p.chunks, c)
		if i < 0 || !c.empty() {
			return
		}
		p.chunks = slices.Delete(p.chunks, i, i+1)
	}
	m.regionMu.Lock()
	if m.chunks[idx].Load() == c && c.empty() {
		m.releaseChunkLocked(c)
	}
	m.regionMu.Unlock()
}

func (m *Manager) domainByID(id domain.ID) *domain.Domain { return m.Reg.Get(id) }

// pathsByID snapshots the open paths in ascending ID order, so that
// region-wide sweeps (reclamation, domain termination) visit paths in a
// deterministic order rather than Go map order.
func (m *Manager) pathsByID() []*DataPath {
	out := make([]*DataPath, 0, len(m.paths))
	for _, p := range m.paths {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Reclamation: the fbuf region is pageable ---

// ReclaimIdle reclaims physical frames from fbufs sitting on free lists,
// oldest-freed first (the LIFO tail), discarding contents — "when the
// kernel reclaims the physical memory of an fbuf that is on a free list, it
// discards the fbuf's contents; it does not have to page it out". It
// returns the number of frames reclaimed.
func (m *Manager) ReclaimIdle(maxFrames int) int {
	reclaimed := 0
	for _, p := range m.pathsByID() {
		p.mu.Lock()
		for i := 0; i < len(p.free) && reclaimed < maxFrames; i++ {
			f := p.free[i] // front = least recently freed under LIFO push-to-back
			f.mu.Lock()
			for pg := 0; pg < f.Pages && reclaimed < maxFrames; pg++ {
				if f.frames[pg] == mem.NoFrame {
					continue
				}
				va := f.Base + vm.VA(pg*machine.PageSize)
				for _, h := range f.holders {
					if !h.mapped {
						continue
					}
					if d := m.domainByID(h.id); d != nil && !d.Dead() {
						d.AS.Unmap(va)
					}
				}
				if m.san != nil {
					m.san.frameReclaimed(f, pg)
				}
				m.deferFrameFree(f.frames[pg])
				f.frames[pg] = mem.NoFrame
				reclaimed++
				atomic.AddUint64(&m.stats.FramesReclaimed, 1)
				m.emit(obs.EvFrameReclaimed, nil, f, int64(pg))
			}
			f.mu.Unlock()
			if reclaimed >= maxFrames {
				break
			}
		}
		p.mu.Unlock()
	}
	return reclaimed
}

// --- Termination (section 3.3) ---

// domainDied is the death hook: release all references the domain holds
// (its endpoints are destroyed, deallocating associated fbufs), close paths
// it originates, and keep its chunks alive until external references drain.
func (m *Manager) domainDied(d *domain.Domain) {
	// Drop references held by the dying domain on every live fbuf.
	visit := func(f *Fbuf) {
		f.mu.Lock()
		h := f.lineOf(d.ID)
		held := f.loadState() == StateLive && h.refs > 0
		if held {
			// Collapse multiple refs to one; Free drops the last.
			f.total.Add(-int64(h.refs - 1))
			f.setLine(d.ID, 1, h.mapped)
		}
		f.mu.Unlock()
		if held {
			if err := m.Free(f, d); err != nil {
				panic("core: termination free failed: " + err.Error())
			}
		}
		f.mu.Lock()
		if h := f.lineOf(d.ID); h.mapped {
			f.setLine(d.ID, h.refs, false)
		}
		f.mu.Unlock()
	}
	for i := range m.chunks {
		c := m.chunks[i].Load()
		if c == nil {
			continue
		}
		c.mu.Lock()
		fbufs := append([]*Fbuf(nil), c.fbufs...)
		c.mu.Unlock()
		for _, f := range fbufs {
			visit(f)
		}
	}
	// Deliver any notices stranded at the dying domain, and flush notices
	// destined for it (its allocators are gone; the kernel recycles).
	m.noticeMu.Lock()
	var stranded []noticeKey
	for k := range m.notices {
		if k.holder == d.ID || k.owner == d.ID {
			stranded = append(stranded, k)
		}
	}
	m.noticeMu.Unlock()
	sort.Slice(stranded, func(i, j int) bool {
		if stranded[i].holder != stranded[j].holder {
			return stranded[i].holder < stranded[j].holder
		}
		return stranded[i].owner < stranded[j].owner
	})
	for _, k := range stranded {
		for _, f := range m.popNotices(k) {
			m.recycle(f)
		}
	}
	// Close paths the domain participates in; free-listed fbufs of an
	// originator-dead path are torn down now, chunks retained only while
	// external references persist.
	for _, p := range m.pathsByID() {
		for _, pd := range p.Domains {
			if pd == d {
				m.ClosePath(p)
				break
			}
		}
	}
	m.attached[d.AS.ASID] = nil
}

// ClosePath closes a data path (its communication endpoint is destroyed):
// the free list is torn down; live fbufs drain through the normal
// free/notice flow and are then fully released because the path is closed.
func (m *Manager) ClosePath(p *DataPath) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	freeList := p.free
	p.free = nil
	p.mu.Unlock()
	for _, f := range freeList {
		m.recycle(f) // path closed: full teardown
	}
	// Depot inventory is free-listed state too: tear it down the same way.
	// Closing the depot makes a stranded in-flight magazine exchange tear
	// its unit down instead of parking it in a dead depot.
	if d := p.depot; d != nil {
		for _, f := range d.close() {
			m.recycle(f)
		}
	}
	m.cacheForget(p.ID)
	delete(m.paths, p.ID)
}
