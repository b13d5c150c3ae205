// Package faults is the deterministic fault-injection plane. A single
// *Plane, seeded once, is consulted by every layer through cheap
// nil-guarded hooks (the same pattern as internal/obs): a nil plane — or a
// point whose rate is zero — costs one pointer comparison and draws nothing
// from the random stream, so enabling one fault point never perturbs the
// schedule of another.
//
// Two kinds of faults are modeled:
//
//   - Point faults (Should): synthetic resource failures injected at named
//     points in the allocation machinery — frame-pool exhaustion, mapping
//     build retries, chunk-grant failure, per-path quota, and domain
//     crash-at-point. Each point has an independent per-million rate.
//
//   - Link faults (LinkVerdict): per-link loss, corruption, duplication,
//     and reordering rates, plus timed partition windows, evaluated at
//     simulated transmit time. These drive the netsim lossy-link layer.
//
// All randomness comes from the plane's own splitmix64 generator so a run
// is a pure function of the seed and the consultation sequence; no global
// rand, no wall clock. Counters record every consultation and injection per
// point and per link action, and Report renders them in a fixed order so
// chaos-harness output is byte-identical across runs with the same seed.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fbufs/internal/simtime"
)

// Point names a fault-injection site in the facility.
type Point uint8

// Fault-injection points, one per recovery mechanism under test.
const (
	// FrameAlloc simulates physical frame-pool exhaustion: vm.System
	// returns mem.ErrOutOfMemory from AllocFrame without touching the pool.
	FrameAlloc Point = iota
	// MapBuild simulates a transient mapping-construction failure: the VM
	// layer retries the PTE install, charging the extra cost.
	MapBuild
	// ChunkGrant simulates global fbuf region exhaustion: core.Manager
	// returns ErrRegionFull from grantChunk.
	ChunkGrant
	// PathAlloc simulates per-path chunk quota exhaustion: core.DataPath
	// returns ErrQuota from carve.
	PathAlloc
	// DomainCrash terminates a domain at an operation boundary, exercising
	// the paper's §3.3 originator-termination cleanup.
	DomainCrash

	numPoints
)

var pointNames = [numPoints]string{
	FrameAlloc:  "frame-alloc",
	MapBuild:    "map-build",
	ChunkGrant:  "chunk-grant",
	PathAlloc:   "path-alloc",
	DomainCrash: "domain-crash",
}

// String returns the point's stable name.
func (p Point) String() string {
	if p < numPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// NumPoints is the number of defined fault points.
const NumPoints = int(numPoints)

// LinkAction is the verdict for one PDU crossing a simulated link.
type LinkAction uint8

// Link verdicts, in increasing order of mischief.
const (
	// Deliver passes the PDU through untouched.
	Deliver LinkAction = iota
	// Drop discards the PDU (loss, or a partition window).
	Drop
	// Corrupt delivers the PDU with flipped payload bytes; the receiving
	// driver's CRC check must discard it.
	Corrupt
	// Duplicate delivers the PDU twice; the transport's duplicate
	// suppression must absorb the extra copy.
	Duplicate
	// Reorder delays the PDU so later PDUs overtake it.
	Reorder

	numLinkActions
)

var linkActionNames = [numLinkActions]string{
	Deliver:   "deliver",
	Drop:      "drop",
	Corrupt:   "corrupt",
	Duplicate: "duplicate",
	Reorder:   "reorder",
}

// String returns the action's stable name.
func (a LinkAction) String() string {
	if a < numLinkActions {
		return linkActionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// partition is a closed-open window [From, Until) of simulated time during
// which every PDU on the link is dropped.
type partition struct {
	From, Until simtime.Time
}

// LinkFaults holds one directed link's fault configuration and counters.
// Rates are per-million and evaluated in the order drop, corrupt,
// duplicate, reorder from a single draw, so the four rates partition the
// probability space (their sum must stay ≤ 1_000_000).
type LinkFaults struct {
	DropPerMillion    uint32
	CorruptPerMillion uint32
	DupPerMillion     uint32
	ReorderPerMillion uint32

	partitions []partition

	pdus           uint64
	actions        [numLinkActions]uint64
	partitionDrops uint64
}

// AddPartition schedules a partition window [from, until) on the link.
func (lf *LinkFaults) AddPartition(from, until simtime.Time) {
	lf.partitions = append(lf.partitions, partition{From: from, Until: until})
}

// Plane is the fault-injection plane. The zero value and nil are both
// fully disabled; construct an active plane with NewPlane.
//
// Consultations mutate the random stream and counters, so they are
// mutex-guarded: concurrent workers may share one plane, but then the
// consultation order — and hence the fault schedule — depends on the
// goroutine schedule. Deterministic fault injection requires the
// single-threaded default mode. Configuration (SetRate, Link, AddPartition)
// is control-plane setup, done before concurrent operation starts.
type Plane struct {
	mu  sync.Mutex
	rng uint64 // splitmix64 state

	rates     [numPoints]uint32 // per-million injection probability
	consulted [numPoints]uint64
	injected  [numPoints]uint64

	links map[int]*LinkFaults
}

// NewPlane creates a fault plane with all rates zero, seeded for the
// deterministic random stream. Two planes with the same seed and the same
// consultation sequence make identical decisions.
func NewPlane(seed int64) *Plane {
	return &Plane{rng: uint64(seed) ^ 0x9e3779b97f4a7c15}
}

// SetRate sets the injection probability for a point, in parts per million.
// Rate 0 disables the point and stops it drawing from the random stream.
func (p *Plane) SetRate(pt Point, perMillion uint32) {
	if perMillion > 1_000_000 {
		perMillion = 1_000_000
	}
	p.rates[pt] = perMillion
}

// Rate returns the point's current per-million rate.
func (p *Plane) Rate(pt Point) uint32 { return p.rates[pt] }

// Should reports whether the fault at pt fires now. Safe on a nil plane
// (never fires). A disabled point (rate 0) is counted as consulted but
// does not draw from the random stream, so enabling one point does not
// shift another point's schedule.
func (p *Plane) Should(pt Point) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consulted[pt]++
	r := p.rates[pt]
	if r == 0 {
		return false
	}
	if simtime.SplitMix64(&p.rng)%1_000_000 >= uint64(r) {
		return false
	}
	p.injected[pt]++
	return true
}

// Consulted returns how many times pt was consulted.
func (p *Plane) Consulted(pt Point) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consulted[pt]
}

// Injected returns how many times pt fired.
func (p *Plane) Injected(pt Point) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected[pt]
}

// Link returns the fault configuration for the directed link id, creating
// it on first use. Callers configure rates and partitions on the result.
// Must not be called on a nil plane.
func (p *Plane) Link(id int) *LinkFaults {
	if p.links == nil {
		p.links = make(map[int]*LinkFaults)
	}
	lf := p.links[id]
	if lf == nil {
		lf = &LinkFaults{}
		p.links[id] = lf
	}
	return lf
}

// LinkVerdict decides the fate of one PDU crossing the directed link id at
// simulated time now. Safe on a nil plane (always Deliver). Partition
// windows dominate: inside one, every PDU drops without drawing from the
// random stream, so the loss schedule after the partition is unchanged.
// A link with all rates zero also does not draw.
func (p *Plane) LinkVerdict(id int, now simtime.Time) LinkAction {
	if p == nil {
		return Deliver
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	lf := p.links[id]
	if lf == nil {
		return Deliver
	}
	lf.pdus++
	for _, w := range lf.partitions {
		if now >= w.From && now < w.Until {
			lf.partitionDrops++
			lf.actions[Drop]++
			return Drop
		}
	}
	total := uint64(lf.DropPerMillion) + uint64(lf.CorruptPerMillion) +
		uint64(lf.DupPerMillion) + uint64(lf.ReorderPerMillion)
	if total == 0 {
		lf.actions[Deliver]++
		return Deliver
	}
	draw := simtime.SplitMix64(&p.rng) % 1_000_000
	a := Deliver
	switch {
	case draw < uint64(lf.DropPerMillion):
		a = Drop
	case draw < uint64(lf.DropPerMillion)+uint64(lf.CorruptPerMillion):
		a = Corrupt
	case draw < uint64(lf.DropPerMillion)+uint64(lf.CorruptPerMillion)+uint64(lf.DupPerMillion):
		a = Duplicate
	case draw < total:
		a = Reorder
	}
	lf.actions[a]++
	return a
}

// LinkStats is a read-only snapshot of one link's counters.
type LinkStats struct {
	Link           int
	PDUs           uint64
	Actions        [numLinkActions]uint64
	PartitionDrops uint64
}

// Action returns the count for one verdict.
func (s LinkStats) Action(a LinkAction) uint64 { return s.Actions[a] }

// LinkSnapshot returns per-link counters sorted by link id (deterministic
// despite the map). Safe on a nil plane.
func (p *Plane) LinkSnapshot() []LinkStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int, 0, len(p.links))
	for id := range p.links {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]LinkStats, 0, len(ids))
	for _, id := range ids {
		lf := p.links[id]
		out = append(out, LinkStats{
			Link:           id,
			PDUs:           lf.pdus,
			Actions:        lf.actions,
			PartitionDrops: lf.partitionDrops,
		})
	}
	return out
}

// Report renders every point and link counter in a fixed order. The output
// is byte-identical for identical seeds and schedules; the chaos harness
// embeds it in its transcript.
func (p *Plane) Report() string {
	var b strings.Builder
	if p == nil {
		b.WriteString("faults: disabled\n")
		return b.String()
	}
	b.WriteString("faults:\n")
	p.mu.Lock()
	for pt := Point(0); pt < numPoints; pt++ {
		fmt.Fprintf(&b, "  point %-12s rate=%-7d consulted=%-8d injected=%d\n",
			pt, p.rates[pt], p.consulted[pt], p.injected[pt])
	}
	p.mu.Unlock()
	for _, ls := range p.LinkSnapshot() {
		fmt.Fprintf(&b, "  link %d: pdus=%d", ls.Link, ls.PDUs)
		for a := LinkAction(0); a < numLinkActions; a++ {
			fmt.Fprintf(&b, " %s=%d", a, ls.Actions[a])
		}
		fmt.Fprintf(&b, " partition-drops=%d\n", ls.PartitionDrops)
	}
	return b.String()
}
