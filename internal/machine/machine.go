// Package machine defines the simulated hardware profile: the calibrated
// cost table (microseconds per primitive VM, IPC, and I/O operation) and the
// TLB model. The default profile, DecStation5000, is calibrated against the
// measurements reported in the fbufs paper for a DecStation 5000/200
// (25 MHz MIPS R3000): page clear = 57 us, Table 1 per-page transfer costs of
// 3/21/29 us, DASH-style remap at 22 us ping-pong and 42-99 us one-way, Mach
// IPC latency fitting Figure 3, and the Osiris/TurboChannel I/O ceilings of
// Figures 5-6 (367 Mb/s DMA-startup bound, 285 Mb/s with memory contention,
// 516 Mb/s net link bandwidth).
//
// Costs are data, not code: every mechanism in this repository charges costs
// by name from a CostTable, so ablations and sensitivity studies swap tables
// without touching mechanism code.
package machine

import "fbufs/internal/simtime"

// PageSize is the virtual-memory page size in bytes. The paper's arithmetic
// (asymptotic throughput = 4096*8 bits / per-page cost) pins this at 4 KB.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// CostTable holds the per-operation costs, in simulated microseconds unless
// stated otherwise. The emergent composite costs (Table 1 rows, remap costs)
// are asserted by the calibration tests in internal/bench.
type CostTable struct {
	// --- Virtual memory primitives ---

	// TLBMiss is the software-refill cost charged on the first touch of a
	// page through a given address space since the page's TLB entry was
	// last invalidated. (The R3000 handles TLB misses in software.)
	TLBMiss simtime.Duration

	// PTEMap is the cost to establish one page mapping: update the
	// machine-independent map and write the physical page table entry.
	// Adding a mapping needs no TLB shootdown.
	PTEMap simtime.Duration

	// PTEUnmap is the cost to remove one page mapping. Invalidation uses a
	// lazy ASID-flush discipline, so it is cheaper than a protection
	// downgrade, which must be visible immediately.
	PTEUnmap simtime.Duration

	// ProtChange is the cost to change the protection on one mapped page
	// *and* make the change globally visible (TLB/cache consistency
	// actions). This is the dominant per-page cost of non-volatile fbufs.
	ProtChange simtime.Duration

	// FrameAlloc / FrameFree are per-page physical memory management costs.
	FrameAlloc simtime.Duration
	FrameFree  simtime.Duration

	// PageClear is the cost to zero-fill one page (57 us on the
	// DecStation, per the paper). Charged when a page is handed to a
	// domain that must not see its previous contents.
	PageClear simtime.Duration

	// PageCopy is the cost to copy one page once (one direction). Mach's
	// copy path for small messages is copyin + copyout = 2 * PageCopy.
	PageCopy simtime.Duration

	// FaultTrap is the fixed cost of taking a page fault: trap entry,
	// lookup in VM data structures, trap exit. The handler's work (copy,
	// PTE fix) is charged separately.
	FaultTrap simtime.Duration

	// VAAlloc / VAFree are per-fbuf costs to find/reserve and release a
	// virtual address range.
	VAAlloc simtime.Duration
	VAFree  simtime.Duration

	// RemapBookkeep is the per-page high-level (machine-independent map)
	// bookkeeping charged by the standalone remap facility, which must
	// track transferable regions on both sides. The fbuf region's
	// restricted layout eliminates this cost for fbufs.
	RemapBookkeep simtime.Duration

	// COWMark is the per-page cost for Mach's copy-on-write transfer to
	// mark a page COW in the high-level map. The physical page tables are
	// updated lazily, which is why each transfer later takes two faults.
	COWMark simtime.Duration

	// --- Control transfer ---

	// IPCLatency is the end-to-end latency of a null cross-domain RPC
	// (Mach IPC plus proxy overhead).
	IPCLatency simtime.Duration

	// IPCPerFbuf is the per-fbuf-descriptor marshalling cost for transfers
	// that pass lists of fbufs through the kernel (eliminated by the
	// integrated buffer management optimization).
	IPCPerFbuf simtime.Duration

	// KernelCall is the cost of a trap into the kernel and back without a
	// full domain switch (used by non-volatile secure/restore requests and
	// uncached allocation when the local allocator needs a new chunk).
	KernelCall simtime.Duration

	// --- Protocol processing (x-kernel on the DecStation) ---

	// UDPPerMsg is UDP processing (header build/parse, demux) per message.
	UDPPerMsg simtime.Duration
	// ChecksumPerPage is the CPU cost to checksum one page of data (the
	// ones'-complement sum is load/add bound; comparable to a one-way
	// page copy on the R3000). Charged only when checksumming is on.
	ChecksumPerPage simtime.Duration
	// IPPerPDU is IP processing per PDU (fragment or whole datagram).
	IPPerPDU simtime.Duration
	// IPFragSetup is the fixed per-message cost of entering the
	// fragmentation path (present only when a message must be fragmented;
	// this produces the Figure 4 single-domain anomaly at 4 KB).
	IPFragSetup simtime.Duration
	// IPReassPerPDU is reassembly cost per arriving fragment.
	IPReassPerPDU simtime.Duration
	// DriverPerPDU is device-driver processing per PDU (send or receive),
	// excluding DMA time, which is charged to the bus.
	DriverPerPDU simtime.Duration
	// InterruptCost is the fixed cost of taking a device interrupt.
	InterruptCost simtime.Duration

	// --- Osiris / TurboChannel I/O model ---

	// ATMCellPayload is bytes of payload per ATM cell (AAL: 48).
	ATMCellPayload int
	// BusCellDMA is the bus occupancy per cell DMA: payload transfer time
	// at TurboChannel peak plus DMA startup. The paper: peak 800 Mb/s,
	// but per-cell startup limits Osiris to 367 Mb/s.
	BusCellDMA simtime.Duration
	// BusContention is additional per-cell stall when the host CPU
	// competes for memory (reduces effective I/O to 285 Mb/s in the
	// paper). Set to 0 to model an idle-CPU bus (the 367 Mb/s figure).
	BusContention simtime.Duration
	// LinkCell is the link (622 Mb/s OC-12, 516 Mb/s net of cell
	// overhead) serialization time per cell.
	LinkCell simtime.Duration
	// LinkPropagation is the null-modem propagation delay.
	LinkPropagation simtime.Duration

	// TextDuplicationPenalty is the extra per-domain-crossing cost charged
	// when a third protection domain joins a data path and the system has
	// no shared libraries: duplicated x-kernel text thrashes the
	// instruction cache and TLB (paper section 4, Figure 5 discussion).
	TextDuplicationPenalty simtime.Duration
}

// DecStation5000 returns the calibrated DecStation 5000/200 cost table.
//
// Derivation of the anchored composites (single domain crossing, per page,
// steady state; see internal/bench calibration tests):
//
//	cached+volatile: 2*TLBMiss                                  =  3 us
//	volatile (uncached): FrameAlloc + 2*PTEMap + 2*PTEUnmap +
//	                     FrameFree + 2*TLBMiss                  = 21 us
//	cached (non-volatile): 2*ProtChange + 2*TLBMiss             = 29 us
//	plain fbufs (uncached, non-volatile): 21 + ProtChange       = 34 us
//	  (no restore ProtChange: an uncached fbuf is destroyed at free)
//	remap ping-pong: ProtChange + PTEMap + RemapBookkeep + miss = 22 us
//	remap one-way (no clear): ping-pong + alloc/free path       = 42 us
//	remap one-way (full clear): + PageClear                     = 99 us
//	Mach COW: COWMark*2 + 2 faults + PTE fixes + unmap + misses = 70 us
//	Copy (copyin+copyout): 2*PageCopy + 2*TLBMiss               = 143 us
func DecStation5000() *CostTable {
	us := simtime.US
	return &CostTable{
		TLBMiss:    1500, // 1.5 us software refill; two touches/page = 3 us
		PTEMap:     us(4),
		PTEUnmap:   us(3),
		ProtChange: us(13),
		FrameAlloc: us(2),
		FrameFree:  us(2),
		PageClear:  us(57),
		PageCopy:   us(70),
		FaultTrap:  us(25),
		VAAlloc:    us(10),
		VAFree:     us(8),

		RemapBookkeep: us(2),
		COWMark:       us(2),

		IPCLatency: us(110),
		IPCPerFbuf: us(5),
		KernelCall: us(20),

		UDPPerMsg:       us(60),
		ChecksumPerPage: us(50),
		IPPerPDU:        us(40),
		IPFragSetup:     us(450),
		IPReassPerPDU:   us(50),
		DriverPerPDU:    us(50),
		InterruptCost:   us(25),

		ATMCellPayload:  48,
		BusCellDMA:      1046, // ns: 48B*8b / 367 Mb/s
		BusContention:   301,  // ns: total 1347 ns/cell -> 285 Mb/s
		LinkCell:        744,  // ns: 48B*8b / 516 Mb/s net
		LinkPropagation: us(2),

		TextDuplicationPenalty: us(60),
	}
}

// FutureCPU returns a hypothetical profile testing the paper's section
// 2.2.1 prediction: "the improvement from 208 us/page (Sun 3/50) to
// 22 us/page (DEC 5000/200) might be taken as evidence that page remapping
// will continue to become faster at the same rate as processors become
// faster. We doubt that this extrapolation is correct ... the CPU was
// stalled waiting for cache fills approximately half of the time. The
// operation is likely to become more memory bound as the gap between CPU
// and memory speeds widens."
//
// The profile scales pure-CPU work by cpuSpeedup while memory-bound work
// (page clears, page copies, the memory-stall half of TLB consistency
// actions) stays fixed, and emits the table for the remap-vs-fbufs gap
// ablation. With a 10x CPU, copying and remapping improve far less than
// 10x, while the cached/volatile fbuf path — which touches almost no
// memory beyond the payload — keeps pace.
func FutureCPU(cpuSpeedup int64) *CostTable {
	c := DecStation5000()
	scale := func(d simtime.Duration) simtime.Duration {
		v := int64(d) / cpuSpeedup
		if v < 100 { // floor: 0.1 us of irreducible instruction work
			v = 100
		}
		return simtime.Duration(v)
	}
	// Memory-bound halves stay; CPU-bound halves scale. The paper
	// measured the remap path ~50% memory-stalled; we apply that split
	// to the TLB/cache-consistency operations and keep pure memory
	// operations (clear, copy) fixed.
	half := func(d simtime.Duration) simtime.Duration { return d/2 + scale(d/2) }

	c.TLBMiss = half(c.TLBMiss)
	c.PTEMap = scale(c.PTEMap)
	c.PTEUnmap = scale(c.PTEUnmap)
	c.ProtChange = half(c.ProtChange) // shootdown waits on memory
	c.FrameAlloc = scale(c.FrameAlloc)
	c.FrameFree = scale(c.FrameFree)
	// PageClear and PageCopy are memory-bandwidth bound: unchanged.
	c.FaultTrap = scale(c.FaultTrap)
	c.VAAlloc = scale(c.VAAlloc)
	c.VAFree = scale(c.VAFree)
	c.RemapBookkeep = scale(c.RemapBookkeep)
	c.COWMark = scale(c.COWMark)
	c.IPCLatency = half(c.IPCLatency)
	c.IPCPerFbuf = scale(c.IPCPerFbuf)
	c.KernelCall = scale(c.KernelCall)
	c.UDPPerMsg = scale(c.UDPPerMsg)
	c.IPPerPDU = scale(c.IPPerPDU)
	c.IPFragSetup = scale(c.IPFragSetup)
	c.IPReassPerPDU = scale(c.IPReassPerPDU)
	c.DriverPerPDU = scale(c.DriverPerPDU)
	c.InterruptCost = scale(c.InterruptCost)
	return c
}

// TLBEntries is the number of TLB entries on the R3000.
const TLBEntries = 64

// tlbSlots is the size of the TLB's hit-test index: a power of two at
// twice the capacity, so linear probes stay short.
const (
	tlbSlotBits = 7
	tlbSlots    = 1 << tlbSlotBits
)

// TLB models an ASID-tagged, software-refilled TLB. The model is
// deliberately simple: it tracks which (asid, vpn) pairs are present and
// charges CostTable.TLBMiss on absence. Capacity eviction is FIFO, which is
// close enough to the random replacement of the R3000 for the locality
// effects the paper relies on (cached fbufs keep their entries hot; a third
// domain's duplicated text evicts them).
//
// The resident keys sit in a fixed ring in FIFO order, and a fixed
// open-addressed index (linear probing, backward-shift deletion) maps each
// key to its ring slot, so no operation allocates. The TLB is not safe for
// concurrent use: vm.System guards it with the lock that guards its page
// tables.
type TLB struct {
	capacity int
	head     int // ring slot of the oldest entry
	n        int // resident entries
	keys     [TLBEntries]tlbKey
	index    [tlbSlots]uint8 // ring slot + 1 of the key probing here; 0 is empty
	misses   uint64
	hits     uint64
}

type tlbKey struct {
	asid int
	vpn  uint64
}

// home is k's first probe in the index (Fibonacci hashing).
func (k tlbKey) home() int {
	return int((k.vpn ^ uint64(k.asid)<<48) * 0x9E3779B97F4A7C15 >> (64 - tlbSlotBits))
}

// NewTLB creates a TLB with the given number of entries, at most
// TLBEntries (0 means TLBEntries).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = TLBEntries
	}
	if capacity > TLBEntries {
		panic("machine: TLB capacity above TLBEntries")
	}
	return &TLB{capacity: capacity}
}

// Touch records an access to (asid, vpn) and reports whether it missed.
func (t *TLB) Touch(asid int, vpn uint64) (missed bool) {
	k := tlbKey{asid, vpn}
	s, ok := t.lookup(k)
	if ok {
		t.hits++
		return false
	}
	t.misses++
	if t.n == t.capacity {
		t.remove(0)
		s, _ = t.lookup(k) // the deletion may have moved the probe's end
	}
	r := t.slot(t.n)
	t.keys[r] = k
	t.index[s] = uint8(r + 1)
	t.n++
	return true
}

// Invalidate drops the entry for (asid, vpn) if present, as a protection
// change or unmap must.
func (t *TLB) Invalidate(asid int, vpn uint64) {
	k := tlbKey{asid, vpn}
	if s, ok := t.lookup(k); ok {
		t.remove((int(t.index[s]) - 1 - t.head + t.capacity) % t.capacity)
	}
}

// InvalidateASID drops all entries belonging to an address space (domain
// teardown, ASID recycling).
func (t *TLB) InvalidateASID(asid int) {
	for q := t.n - 1; q >= 0; q-- {
		if t.keys[t.slot(q)].asid == asid {
			t.remove(q)
		}
	}
}

// Stats returns cumulative hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// slot returns the ring slot of FIFO position q (0 is the oldest).
func (t *TLB) slot(q int) int {
	if q += t.head; q >= t.capacity {
		q -= t.capacity
	}
	return q
}

// lookup returns the index slot holding k, or the empty slot that ends
// k's probe.
func (t *TLB) lookup(k tlbKey) (s int, found bool) {
	for s = k.home(); t.index[s] != 0; s = (s + 1) & (tlbSlots - 1) {
		if t.keys[t.index[s]-1] == k {
			return s, true
		}
	}
	return s, false
}

// indexOf returns the index slot pointing at ring slot r.
func (t *TLB) indexOf(r int) int {
	s := t.keys[r].home()
	for int(t.index[s]) != r+1 {
		s = (s + 1) & (tlbSlots - 1)
	}
	return s
}

// remove drops the entry at FIFO position q and closes the gap from the
// shorter side, so the others keep their order.
func (t *TLB) remove(q int) {
	// Backward-shift deletion: pull each later entry of the probe run
	// into the hole unless its home lies cyclically after the hole.
	i := t.indexOf(t.slot(q))
	for j := (i + 1) & (tlbSlots - 1); t.index[j] != 0; j = (j + 1) & (tlbSlots - 1) {
		h := t.keys[t.index[j]-1].home()
		if (j-h)&(tlbSlots-1) >= (j-i)&(tlbSlots-1) {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	if q < t.n/2 {
		for ; q > 0; q-- {
			t.move(t.slot(q-1), t.slot(q))
		}
		t.head = t.slot(1)
	} else {
		for ; q < t.n-1; q++ {
			t.move(t.slot(q+1), t.slot(q))
		}
	}
	t.n--
}

// move copies the key in ring slot from to ring slot to and repoints its
// index entry.
func (t *TLB) move(from, to int) {
	t.index[t.indexOf(from)] = uint8(to + 1)
	t.keys[to] = t.keys[from]
}
