// Package vm implements the simulated two-level virtual memory system that
// the fbuf mechanism is built on: per-address-space page tables beneath a
// machine-independent region map, protection bits enforced on every
// simulated access, an ASID-tagged software-refilled TLB, and page-fault
// handling with pluggable per-region handlers (used for copy-on-write, lazy
// fbuf frame fill, and the volatile-fbuf read-to-empty-leaf rule).
//
// Every mapping, protection, and TLB operation charges its calibrated cost
// (machine.CostTable) to the system's cost sink, mirroring the accounting
// the paper does on the DecStation: "the time it takes to switch to
// supervisor mode, acquire necessary locks to VM data structures, change VM
// mappings perhaps at several levels for each page, perform TLB/cache
// consistency actions..." (section 2.2.1).
package vm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fbufs/internal/faults"
	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
)

// VA is a virtual address.
type VA uint64

// VPN returns the virtual page number of the address.
func (a VA) VPN() uint64 { return uint64(a) >> machine.PageShift }

// PageOffset returns the offset of the address within its page.
func (a VA) PageOffset() int { return int(uint64(a) & (machine.PageSize - 1)) }

// PageBase returns the address of the start of the page containing a.
func (a VA) PageBase() VA { return a &^ VA(machine.PageSize-1) }

// Prot is a page protection.
type Prot uint8

// Protection bits. Write does not imply Read; use ReadWrite for both.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1

	ReadWrite = ProtRead | ProtWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ReadWrite:
		return "rw-"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// CostSink receives simulated-time charges. *simtime.Clock satisfies it via
// the adapter in package netsim; single-host experiments use ClockSink.
type CostSink interface {
	Charge(d simtime.Duration)
}

// ClockSink adapts a simtime.Clock to CostSink.
type ClockSink struct{ Clock *simtime.Clock }

// Charge advances the underlying clock.
func (s ClockSink) Charge(d simtime.Duration) { s.Clock.Advance(d) }

// Meter is a CostSink that accumulates charges; the event-driven experiments
// meter a logical task and then occupy the host CPU for the accumulated
// duration. A Meter belongs to one logical task at a time and is not safe
// for concurrent use — the event-driven harness is single-threaded by
// design (concurrent workers use ClockSink over the atomic Clock instead).
type Meter struct{ Total simtime.Duration }

// Charge accumulates d.
func (m *Meter) Charge(d simtime.Duration) { m.Total += d }

// Take returns the accumulated total and resets the meter.
func (m *Meter) Take() simtime.Duration {
	t := m.Total
	m.Total = 0
	return t
}

// AccessError reports a memory access violation in a simulated domain: a
// protection fault with no handler willing to resolve it. It models the
// "memory access violation exception" the paper specifies for illegal
// writes to fbufs.
type AccessError struct {
	ASID  int
	VA    VA
	Write bool
	Cause error
}

func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("vm: access violation: %s of %#x in asid %d: %s", op, uint64(e.VA), e.ASID, e.Cause)
}

// Unwrap exposes the fault's underlying cause so callers can classify it
// with errors.Is — in particular an exhausted frame pool during lazy
// refill surfaces as mem.ErrOutOfMemory and adaptive callers degrade to
// the copy path instead of treating it as a protection violation.
func (e *AccessError) Unwrap() error { return e.Cause }

// ErrNoMapping is wrapped into AccessError causes.
var ErrNoMapping = errors.New("no mapping")

// FaultHandler is invoked on a page fault within its region, after the
// FaultTrap cost has been charged. It should resolve the fault (typically by
// establishing or upgrading a mapping) and return nil, after which the
// access retries once; returning an error converts the fault into an
// AccessError delivered to the simulated program.
type FaultHandler func(as *AddrSpace, va VA, write bool) error

// Region is a machine-independent map entry: a contiguous VA range with a
// name and an optional fault handler.
type Region struct {
	Start   VA
	Pages   int
	Name    string
	Handler FaultHandler
}

// End returns the first address past the region.
func (r *Region) End() VA { return r.Start + VA(r.Pages*machine.PageSize) }

// Contains reports whether va lies inside the region.
func (r *Region) Contains(va VA) bool { return va >= r.Start && va < r.End() }

// PTE is a machine-dependent page table entry.
type PTE struct {
	Frame mem.FrameNum
	Prot  Prot
	// COW marks the page copy-on-write: a write fault should copy the
	// frame if it is shared rather than fail.
	COW   bool
	valid bool
}

// leafBits sizes a page-table leaf: 1,024 PTEs, like the R3000's 4 KB page
// of 4-byte entries. A leaf here is 8 KB.
const (
	leafBits = 10
	leafPTEs = 1 << leafBits
)

// pageTable is a two-level page table: a directory of leaves sorted by
// vpn >> leafBits, each created on the first mapping it covers and kept
// until Destroy. The fbuf region sits at the same VAs in every domain, so
// its leaves stay dense.
type pageTable struct {
	dir    []ptLeaf
	last   int // dir index of the leaf last used
	mapped int // valid PTEs
}

type ptLeaf struct {
	hi   uint64 // vpn >> leafBits of every PTE in the leaf
	ptes *[leafPTEs]PTE
}

// entry returns vpn's PTE, or nil when no leaf covers vpn and grow is
// false.
func (pt *pageTable) entry(vpn uint64, grow bool) *PTE {
	hi := vpn >> leafBits
	if pt.last < len(pt.dir) && pt.dir[pt.last].hi == hi {
		return &pt.dir[pt.last].ptes[vpn&(leafPTEs-1)]
	}
	i, ok := slices.BinarySearchFunc(pt.dir, hi, func(l ptLeaf, hi uint64) int { return cmp.Compare(l.hi, hi) })
	if !ok {
		if !grow {
			return nil
		}
		pt.dir = slices.Insert(pt.dir, i, ptLeaf{hi, new([leafPTEs]PTE)})
	}
	pt.last = i
	return &pt.dir[i].ptes[vpn&(leafPTEs-1)]
}

// get returns vpn's PTE, invalid when vpn is unmapped.
func (pt *pageTable) get(vpn uint64) PTE {
	if p := pt.entry(vpn, false); p != nil {
		return *p
	}
	return PTE{}
}

// set installs pte at vpn and returns the entry it replaced.
func (pt *pageTable) set(vpn uint64, pte PTE) (old PTE) {
	p := pt.entry(vpn, true)
	if old = *p; !old.valid {
		pt.mapped++
	}
	pte.valid = true
	*p = pte
	return old
}

// unset invalidates vpn's PTE and returns the entry it held.
func (pt *pageTable) unset(vpn uint64) (old PTE) {
	p := pt.entry(vpn, false)
	if p == nil || !p.valid {
		return PTE{}
	}
	old, *p = *p, PTE{}
	pt.mapped--
	return old
}

// System bundles the simulated memory hardware shared by all address spaces
// on one host: the frame pool, the TLB, the cost table, and the cost sink.
type System struct {
	Cost *machine.CostTable
	Mem  *mem.PhysMem
	// TLB is guarded by mu; read its Stats only at quiescence.
	TLB *machine.TLB

	// mu is the VM lock: it guards the TLB and every address space's page
	// table, so a translation takes it once for its TLB touch and PTE
	// read. Nothing but PhysMem.mu is acquired under it; fault handlers,
	// retries and obs hooks run outside it.
	mu sync.Mutex

	// Obs, when non-nil, receives trace events and metrics from every
	// layer on this host. nil (the default) disables observability with a
	// single pointer check per hook.
	Obs *obs.Observer
	// TraceBase is added to domain and path IDs in trace events so
	// multi-host simulations sharing one observer get disjoint trace
	// actors (netsim gives host B base 100).
	TraceBase int

	// FaultPlane, when non-nil, injects synthetic resource failures
	// (frame-pool exhaustion via AllocFrame, transient mapping-build
	// retries in Map/MapOwned). nil disables injection with a single
	// pointer check per hook, same discipline as Obs.
	FaultPlane *faults.Plane

	sink     CostSink
	nextASID int

	// Stats. Updated with atomic adds so concurrent workers can share one
	// System; read them directly only at quiescence (between operations),
	// as the rest of the repo's counters.
	Faults     uint64
	Violations uint64
	// MapRetries counts injected transient mapping-build failures that
	// were resolved by retrying the PTE install (extra PTEMap charged).
	MapRetries uint64
}

// NewSystem creates a VM system whose frame pool holds up to frames page
// frames. The count is a capacity: the pool's Go memory grows with the
// frames allocated, not with its size.
func NewSystem(cost *machine.CostTable, frames int, sink CostSink) *System {
	return &System{
		Cost: cost,
		Mem:  mem.New(frames),
		TLB:  machine.NewTLB(0),
		sink: sink,
	}
}

// PublishMetrics writes the VM and TLB counters into the registry. The
// struct fields remain the source of truth; Set overwrites so repeated
// publishing never double-counts.
func (s *System) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("vm.faults").Set(s.Faults)
	reg.Counter("vm.violations").Set(s.Violations)
	reg.Counter("vm.map_retries").Set(s.MapRetries)
	s.mu.Lock()
	hits, misses := s.TLB.Stats()
	s.mu.Unlock()
	reg.Counter("tlb.hits").Set(hits)
	reg.Counter("tlb.misses").Set(misses)
}

// SetSink replaces the cost sink (the event-driven harness swaps in a Meter
// around each logical task).
func (s *System) SetSink(sink CostSink) { s.sink = sink }

// Sink returns the current cost sink.
func (s *System) Sink() CostSink { return s.sink }

func (s *System) charge(d simtime.Duration) {
	if s.sink != nil {
		s.sink.Charge(d)
	}
}

// AllocFrame allocates a physical frame, consulting the fault plane first:
// an injected faults.FrameAlloc failure returns mem.ErrOutOfMemory without
// touching the pool, simulating exhaustion the caller must degrade around.
// All allocation paths that a simulated program can drive (lazy fbuf
// refill, fbuf populate, COW resolution) go through here; setup-time
// allocations that model pre-established state call Mem.Alloc directly.
func (s *System) AllocFrame() (mem.FrameNum, error) {
	if s.FaultPlane.Should(faults.FrameAlloc) {
		return mem.NoFrame, mem.ErrOutOfMemory
	}
	return s.Mem.Alloc()
}

// AddrSpace is one protection domain's address space: a region list over a
// page table.
//
// The page table is guarded by the System's VM lock and the VA allocator
// and region list by mu, so concurrent workers can map, unmap, and
// translate through one space. Translate releases both before invoking a
// region fault handler (handlers re-enter Map), which is also what pins
// the documented lock order: any facility-level lock (core's
// path/chunk/fbuf locks) is acquired *before* them, never inside.
type AddrSpace struct {
	Sys  *System
	ASID int
	Name string
	// Owner is the owning domain's ID for trace attribution, or -1 when
	// the space belongs to no domain (package domain sets it).
	Owner int

	mu      sync.Mutex
	regions []*Region // sorted by Start
	pt      pageTable

	// Private-VA bump allocator with exact-size free lists.
	nextVA  VA
	freeVAs map[int][]VA // pages -> reusable starts
	vaLimit VA
}

// Private address-space layout: per-domain private allocations live in
// [PrivateBase, PrivateLimit). The globally shared fbuf region is above
// this; its layout is owned by package core.
const (
	PrivateBase  VA = 0x0000_0010_0000
	PrivateLimit VA = 0x0000_4000_0000
)

// NewAddrSpace creates an address space in the system.
func (s *System) NewAddrSpace(name string) *AddrSpace {
	s.nextASID++
	return &AddrSpace{
		Sys:     s,
		ASID:    s.nextASID,
		Name:    name,
		Owner:   -1,
		nextVA:  PrivateBase,
		freeVAs: make(map[int][]VA),
		vaLimit: PrivateLimit,
	}
}

// --- Region (machine-independent map) management ---

// AddRegion inserts a region. Regions may not overlap.
func (as *AddrSpace) AddRegion(r *Region) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].Start >= r.Start })
	if i > 0 && as.regions[i-1].End() > r.Start {
		return fmt.Errorf("vm: region %q overlaps %q", r.Name, as.regions[i-1].Name)
	}
	if i < len(as.regions) && r.End() > as.regions[i].Start {
		return fmt.Errorf("vm: region %q overlaps %q", r.Name, as.regions[i].Name)
	}
	as.regions = append(as.regions, nil)
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
	return nil
}

// RemoveRegion removes a region previously added.
func (as *AddrSpace) RemoveRegion(r *Region) {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i, e := range as.regions {
		if e == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			return
		}
	}
}

// FindRegion locates the region containing va, or nil.
func (as *AddrSpace) FindRegion(va VA) *Region {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > va })
	if i < len(as.regions) && as.regions[i].Contains(va) {
		return as.regions[i]
	}
	return nil
}

// Regions returns a copy of the region list (read-only use).
func (as *AddrSpace) Regions() []*Region {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]*Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// --- VA allocation (private ranges) ---

// AllocVA reserves a private virtual address range of npages pages,
// charging the per-fbuf VA allocation cost.
func (as *AddrSpace) AllocVA(npages int) (VA, error) {
	as.Sys.charge(as.Sys.Cost.VAAlloc)
	as.mu.Lock()
	defer as.mu.Unlock()
	if lst := as.freeVAs[npages]; len(lst) > 0 {
		va := lst[len(lst)-1]
		as.freeVAs[npages] = lst[:len(lst)-1]
		return va, nil
	}
	need := VA(npages * machine.PageSize)
	if as.nextVA+need > as.vaLimit {
		return 0, fmt.Errorf("vm: %s: private VA space exhausted", as.Name)
	}
	va := as.nextVA
	as.nextVA += need
	return va, nil
}

// FreeVA releases a range obtained from AllocVA.
func (as *AddrSpace) FreeVA(va VA, npages int) {
	as.Sys.charge(as.Sys.Cost.VAFree)
	as.mu.Lock()
	as.freeVAs[npages] = append(as.freeVAs[npages], va)
	as.mu.Unlock()
}

// --- Page table operations (each charges its calibrated cost) ---

// Map establishes a mapping from the page containing va to frame with the
// given protection, taking a reference on the frame. Adding a mapping needs
// no TLB shootdown.
func (as *AddrSpace) Map(va VA, frame mem.FrameNum, prot Prot) {
	as.mapFrame(va, frame, prot, true)
}

// MapOwned is Map for a frame the caller just allocated (which already
// carries its initial reference); no additional reference is taken.
func (as *AddrSpace) MapOwned(va VA, frame mem.FrameNum, prot Prot) {
	as.mapFrame(va, frame, prot, false)
}

func (as *AddrSpace) mapFrame(va VA, frame mem.FrameNum, prot Prot, addRef bool) {
	sys := as.Sys
	sys.charge(sys.Cost.PTEMap)
	as.mapRetry()
	vpn := va.VPN()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	// The new reference is taken before a replaced mapping's is dropped,
	// so remapping the frame a page already maps never frees it.
	if addRef {
		sys.Mem.AddRef(frame)
	}
	if old := as.pt.set(vpn, PTE{Frame: frame, Prot: prot}); old.valid {
		sys.Mem.DecRef(old.Frame)
		sys.TLB.Invalidate(as.ASID, vpn)
	}
}

// mapRetry consults the fault plane for a transient mapping-construction
// failure: the kernel loses a race on its VM locks and reinstalls the PTE,
// so the only observable effect is one extra PTEMap charge and a counter.
// Mapping faults are always recoverable by retry — they never surface as
// errors — which is what makes Map's void signature safe to keep.
func (as *AddrSpace) mapRetry() {
	if as.Sys.FaultPlane.Should(faults.MapBuild) {
		atomic.AddUint64(&as.Sys.MapRetries, 1)
		as.Sys.charge(as.Sys.Cost.PTEMap)
	}
}

// Unmap removes the mapping for the page containing va, dropping the frame
// reference. Invalidation uses the lazy ASID-flush discipline (cheaper than
// a protection downgrade). It reports whether the frame was freed.
func (as *AddrSpace) Unmap(va VA) bool {
	return as.unmap(va, as.Sys.Cost.PTEUnmap)
}

// UnmapSync removes the mapping for the page containing va with immediate
// TLB/cache consistency (the semantics a move-style remap facility needs:
// the sender must lose access before the receiver proceeds). It charges the
// full protection-change cost rather than the lazy unmap cost. It reports
// whether the frame was freed.
func (as *AddrSpace) UnmapSync(va VA) bool {
	return as.unmap(va, as.Sys.Cost.ProtChange)
}

func (as *AddrSpace) unmap(va VA, cost simtime.Duration) bool {
	sys := as.Sys
	vpn := va.VPN()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	pte := as.pt.unset(vpn)
	if !pte.valid {
		return false
	}
	sys.charge(cost)
	sys.TLB.Invalidate(as.ASID, vpn)
	return sys.Mem.DecRef(pte.Frame)
}

// SetProt changes the protection on a mapped page, with full TLB/cache
// consistency (the expensive operation at the center of the volatile-fbuf
// tradeoff). It reports whether the page was mapped.
func (as *AddrSpace) SetProt(va VA, prot Prot) bool {
	sys := as.Sys
	vpn := va.VPN()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	p := as.pt.entry(vpn, false)
	if p == nil || !p.valid {
		return false
	}
	sys.charge(sys.Cost.ProtChange)
	p.Prot = prot
	sys.TLB.Invalidate(as.ASID, vpn)
	return true
}

// SetCOW marks a mapped page copy-on-write with at most read permission.
// This is the cheap high-level-map-only marking of Mach's lazy COW; the
// cost charged is COWMark, and the page's physical protection change is
// deferred to fault time.
func (as *AddrSpace) SetCOW(va VA) bool {
	as.Sys.mu.Lock()
	defer as.Sys.mu.Unlock()
	p := as.pt.entry(va.VPN(), false)
	if p == nil || !p.valid {
		return false
	}
	as.Sys.charge(as.Sys.Cost.COWMark)
	p.COW = true
	p.Prot &^= ProtWrite
	// Lazy: no TLB shootdown here; the stale-TLB window is modelled by
	// the write fault that Mach takes on next write (see Translate).
	return true
}

// traceActor maps the address space to its trace actor id (owning domain
// plus the host trace base), or obs.NoActor for ownerless spaces.
func (as *AddrSpace) traceActor() int {
	if as.Owner < 0 {
		return obs.NoActor
	}
	return as.Owner + as.Sys.TraceBase
}

// Lookup returns the PTE for the page containing va.
func (as *AddrSpace) Lookup(va VA) (PTE, bool) {
	as.Sys.mu.Lock()
	pte := as.pt.get(va.VPN())
	as.Sys.mu.Unlock()
	return pte, pte.valid
}

// MappedPages returns the number of valid PTEs (tests, leak checks).
func (as *AddrSpace) MappedPages() int {
	as.Sys.mu.Lock()
	defer as.Sys.mu.Unlock()
	return as.pt.mapped
}

// --- Simulated access path ---

// Translate resolves va for an access of the given kind, charging TLB-miss
// and fault costs, invoking fault handlers as needed. On success it returns
// the frame.
func (as *AddrSpace) Translate(va VA, write bool) (mem.FrameNum, error) {
	sys := as.Sys
	vpn := va.VPN()
	// One VM lock acquisition covers the TLB touch and the PTE read. It
	// is released before fault handling: region handlers (the fbuf
	// lazy-refill path) re-enter Map, and facility locks rank above it in
	// the documented lock order.
	sys.mu.Lock()
	missed := sys.TLB.Touch(as.ASID, vpn)
	pte := as.pt.get(vpn)
	sys.mu.Unlock()
	if missed {
		sys.charge(sys.Cost.TLBMiss)
		if sys.Obs != nil {
			sys.Obs.Emit(obs.EvTLBMiss, as.traceActor(), obs.NoTrack, 0, int64(vpn))
		}
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	for attempt := 0; ; attempt++ {
		if pte.valid && pte.Prot&need != 0 {
			return pte.Frame, nil
		}
		// Fault path; on a nil return the translation is retried.
		if err := as.fault(va, write, pte, attempt); err != nil {
			return mem.NoFrame, err
		}
		sys.mu.Lock()
		pte = as.pt.get(vpn)
		sys.mu.Unlock()
	}
}

// fault handles one failed translation attempt: trap charge, COW
// resolution, region handlers. A nil return means the fault was handled
// and the translation should be retried.
func (as *AddrSpace) fault(va VA, write bool, pte PTE, attempt int) error {
	sys := as.Sys
	atomic.AddUint64(&sys.Faults, 1)
	if sys.Obs != nil {
		sys.Obs.SpanBegin(span.StageFault, "vm", as.traceActor(), int64(va.VPN()))
		defer sys.Obs.SpanEnd()
	}
	sys.charge(sys.Cost.FaultTrap)
	if sys.Obs != nil {
		sys.Obs.Emit(obs.EvPageFault, as.traceActor(), obs.NoTrack, 0, int64(va.VPN()))
	}
	if pte.valid && pte.COW && write {
		return as.resolveCOW(va, pte)
	}
	if attempt == 0 {
		if r := as.FindRegion(va); r != nil && r.Handler != nil {
			if err := r.Handler(as, va, write); err == nil {
				return nil
			} else {
				atomic.AddUint64(&sys.Violations, 1)
				return &AccessError{ASID: as.ASID, VA: va, Write: write, Cause: err}
			}
		}
	}
	atomic.AddUint64(&sys.Violations, 1)
	cause := ErrNoMapping
	if pte.valid {
		cause = fmt.Errorf("protection %v denies access", pte.Prot)
	}
	return &AccessError{ASID: as.ASID, VA: va, Write: write, Cause: cause}
}

// resolveCOW handles a write fault on a COW page: if the frame is shared,
// allocate a private copy (charging frame-alloc and page-copy costs);
// either way restore write permission and clear COW.
func (as *AddrSpace) resolveCOW(va VA, pte PTE) error {
	sys := as.Sys
	if sys.Mem.RefCount(pte.Frame) > 1 {
		nfn, err := sys.AllocFrame()
		if err != nil {
			return err
		}
		sys.charge(sys.Cost.FrameAlloc + sys.Cost.PageCopy)
		sys.Mem.Copy(nfn, pte.Frame)
		sys.Mem.DecRef(pte.Frame)
		pte.Frame = nfn
	}
	sys.charge(sys.Cost.PTEMap) // PTE fix-up
	pte.COW = false
	pte.Prot |= ProtWrite | ProtRead
	sys.mu.Lock()
	as.pt.set(va.VPN(), pte)
	sys.TLB.Invalidate(as.ASID, va.VPN())
	sys.mu.Unlock()
	return nil
}

// Write stores data at va, splitting at page boundaries, enforcing
// protections, and charging access costs.
func (as *AddrSpace) Write(va VA, data []byte) error {
	for len(data) > 0 {
		fn, err := as.Translate(va, true)
		if err != nil {
			return err
		}
		off := va.PageOffset()
		n := machine.PageSize - off
		if n > len(data) {
			n = len(data)
		}
		as.Sys.Mem.Write(fn, off, data[:n])
		data = data[n:]
		va += VA(n)
	}
	return nil
}

// Read loads len(buf) bytes from va into buf, splitting at page boundaries.
func (as *AddrSpace) Read(va VA, buf []byte) error {
	for len(buf) > 0 {
		fn, err := as.Translate(va, false)
		if err != nil {
			return err
		}
		off := va.PageOffset()
		n := machine.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		as.Sys.Mem.Read(fn, off, buf[:n])
		buf = buf[n:]
		va += VA(n)
	}
	return nil
}

// TouchWrite writes one word at va (the test-protocol access pattern:
// "writes one word in each VM page").
func (as *AddrSpace) TouchWrite(va VA, word uint32) error {
	var b [4]byte
	b[0] = byte(word)
	b[1] = byte(word >> 8)
	b[2] = byte(word >> 16)
	b[3] = byte(word >> 24)
	return as.Write(va, b[:])
}

// TouchRead reads one word at va.
func (as *AddrSpace) TouchRead(va VA) (uint32, error) {
	var b [4]byte
	if err := as.Read(va, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// Destroy tears down the address space: all mappings are removed (frames
// released in VPN order, so the frame pool's LIFO stack comes out the same
// on every run) and the TLB purged of its ASID. Used for domain
// termination.
func (as *AddrSpace) Destroy() {
	sys := as.Sys
	sys.mu.Lock()
	for _, l := range as.pt.dir {
		for _, pte := range l.ptes {
			if pte.valid {
				sys.charge(sys.Cost.PTEUnmap)
				sys.Mem.DecRef(pte.Frame)
			}
		}
	}
	as.pt = pageTable{}
	sys.TLB.InvalidateASID(as.ASID)
	sys.mu.Unlock()
	as.mu.Lock()
	as.regions = nil
	as.mu.Unlock()
}
