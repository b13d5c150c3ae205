// Package rings implements the syscall-free data plane: an io_uring-style
// pair of shared-memory rings mapped into both domains of a path. The
// submission ring carries fbuf descriptors from producer to consumer, and
// the completion ring carries acknowledgements plus coalesced deallocation
// notices back, so the steady-state hot path crosses no protection boundary
// at all. Only the doorbell — rung when the submission ring transitions
// empty→non-empty while the consumer is blocked — is a real control
// transfer, charged at the full IPC crossing cost. A consumer that recently
// drained spins on the virtual clock for an adaptive budget before
// blocking; submissions that land inside the spin window are free.
//
// Because ring slots live in memory already mapped into both domains,
// descriptors need no marshalling: the per-descriptor IPCPerFbuf charge of
// the legacy ipc.Router path does not apply here. Deallocation notices are
// likewise batched into a single completion entry per drain instead of
// riding individual replies.
//
// The package imports only vm (for cost charging and span attribution),
// span, and simtime, so ipc, core, and the conformance harness can all
// build on it without cycles.
package rings

import (
	"errors"
	"fmt"
	"sync"

	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// ErrFull is returned when a ring has no free slot; the caller falls back
// to the legacy per-transfer IPC path (which is always available).
var ErrFull = errors.New("rings: ring full")

// DefaultDepth is the slot count used for rings created without an explicit
// capacity. Must be a power of two.
const DefaultDepth = 64

// Adaptive spin-then-block policy bounds: a consumer's budget doubles every
// time a doorbell has to be rung (it blocked too early, so it should have
// lingered longer) and decays by an eighth every time an arrival lands
// inside the spin window (spinning paid off, so probe whether a shorter
// linger still would), clamped to [spinMin, spinMax]. The budget converges
// to just above the inter-arrival time: steady traffic is elided with an
// occasional probing doorbell, while genuinely idle consumers block.
const (
	spinInit = simtime.Time(200 * 1000)      // 200 us
	spinMin  = simtime.Time(50 * 1000)       // 50 us
	spinMax  = simtime.Time(2 * 1000 * 1000) // 2 ms
)

// attending marks a waiter that is actively polling its ring (a synchronous
// submitter watching for its completion): arrivals never ring its doorbell.
const attending = simtime.Time(1) << 62

// Entry is one submission-queue element: a descriptor the producer hands
// the consumer through shared memory, unmarshalled.
type Entry struct {
	Op          string
	Descriptors int
	Body        interface{}
}

// Completion is one completion-queue element: the consumer's acknowledgement
// for a drained submission, carrying that drain's coalesced deallocation
// notices (Notices counts them; Payload is the opaque batch the notice sink
// retires).
type Completion struct {
	Op      string
	Notices int
	Payload interface{}
}

// Stats counts ring activity. Doorbells is the only charged crossing; the
// legacy path's equivalent is one charged call per transfer.
type Stats struct {
	Submits            uint64 // entries accepted into the submission ring
	SubmitFallbacks    uint64 // submissions refused: ring full, caller uses IPC
	Doorbells          uint64 // empty→non-empty with the waiter blocked (charged)
	SpinHits           uint64 // empty→non-empty inside the waiter's spin window (free)
	Drains             uint64 // submission-ring drain passes
	Drained            uint64 // entries consumed by drains
	Completions        uint64 // entries accepted into the completion ring
	CompleteFallback   uint64 // completions refused: ring full, notices delivered directly
	CompletionDrains   uint64 // completion-ring drain passes
	CompletionsDrained uint64 // entries consumed by completion drains
	NoticesCoalesced   uint64 // deallocation notices carried by completion entries
}

// indexes is the ring's index pair: free-running uint32 head (consume side)
// and tail (fill side) over a power-of-two slot array. Occupancy is
// tail-head under wraparound arithmetic, which disambiguates full from
// empty without sacrificing a slot: empty is tail==head, full is
// tail-head==capacity.
type indexes struct {
	mask uint32 // capacity - 1
	head uint32 // next slot to consume (free-running)
	tail uint32 // next slot to fill (free-running)
}

func newIndexes(capacity int) (indexes, error) {
	if capacity <= 0 || capacity > 1<<30 || capacity&(capacity-1) != 0 {
		return indexes{}, fmt.Errorf("rings: capacity %d is not a power of two in [1, 2^30]", capacity)
	}
	return indexes{mask: uint32(capacity - 1)}, nil
}

func (ix *indexes) capacity() uint32  { return ix.mask + 1 }
func (ix *indexes) occupancy() uint32 { return ix.tail - ix.head }
func (ix *indexes) empty() bool       { return ix.tail == ix.head }
func (ix *indexes) full() bool        { return ix.tail-ix.head == ix.mask+1 }

// push reserves the next fill slot, returning its array index.
func (ix *indexes) push() (uint32, bool) {
	if ix.full() {
		return 0, false
	}
	s := ix.tail & ix.mask
	ix.tail++
	return s, true
}

// pop releases the next consume slot, returning its array index.
func (ix *indexes) pop() (uint32, bool) {
	if ix.empty() {
		return 0, false
	}
	s := ix.head & ix.mask
	ix.head++
	return s, true
}

// waiter is one side's spin-then-block state: the instant until which it
// keeps spinning after its last drain, and the adaptive budget that
// interval is computed from.
type waiter struct {
	idleUntil simtime.Time
	budget    simtime.Time
}

func clampSpin(d simtime.Time) simtime.Time {
	if d < spinMin {
		return spinMin
	}
	if d > spinMax {
		return spinMax
	}
	return d
}

// Pair is one direction's ring pair between two domains: submissions flow
// producer→consumer, completions flow back. All methods are safe for
// concurrent use.
type Pair struct {
	name                 string
	sys                  *vm.System
	now                  func() simtime.Time
	prodActor, consActor int

	// DoorbellCost is the control-transfer charge for ringing one
	// doorbell: a real IPC crossing (IPCLatency plus any surcharge).
	// Set once at creation time, before traffic.
	DoorbellCost simtime.Duration

	// mu guards the index pairs, slot arrays, waiter state, and stats. It
	// is a leaf lock (rank 70 in internal/analysis/lockorder.go): pops are
	// taken under it and entries are processed, charged, and recycled only
	// after it is released.
	mu      sync.Mutex
	sq, cq  indexes
	sqSlots []Entry
	cqSlots []Completion
	prod    waiter // waits on the completion ring
	cons    waiter // waits on the submission ring
	stats   Stats
}

// NewPair creates a ring pair of the given capacity (a power of two;
// DefaultDepth when 0). now supplies the virtual clock the spin-then-block
// policy runs on; prodActor and consActor label the two sides' spans
// (domain ID plus trace base, as elsewhere).
func NewPair(sys *vm.System, name string, capacity int, now func() simtime.Time, prodActor, consActor int) (*Pair, error) {
	if capacity == 0 {
		capacity = DefaultDepth
	}
	sq, err := newIndexes(capacity)
	if err != nil {
		return nil, err
	}
	cq, err := newIndexes(capacity)
	if err != nil {
		return nil, err
	}
	return &Pair{
		name: name, sys: sys, now: now,
		prodActor: prodActor, consActor: consActor,
		sq: sq, cq: cq,
		sqSlots: make([]Entry, capacity),
		cqSlots: make([]Completion, capacity),
		prod:    waiter{budget: spinInit},
		cons:    waiter{budget: spinInit},
	}, nil
}

// Name returns the pair's diagnostic name.
func (p *Pair) Name() string { return p.name }

// arrival resolves an empty→non-empty transition against the waiter's spin
// window: inside it the arrival is free (and the budget decays an eighth,
// probing for a shorter linger); outside it the doorbell must be rung (the
// waiter blocked too early, so the budget doubles). Called with mu held;
// returns whether to charge a doorbell.
func (p *Pair) arrival(w *waiter, now simtime.Time) bool {
	if now < w.idleUntil {
		p.stats.SpinHits++
		w.budget = clampSpin(w.budget - w.budget/8)
		return false
	}
	p.stats.Doorbells++
	w.budget = clampSpin(w.budget * 2)
	return true
}

// Submit places one entry on the submission ring. On an empty→non-empty
// transition the consumer's doorbell is rung (charged) unless it is still
// inside its spin window. ErrFull means the caller must fall back to the
// legacy IPC path; nothing was charged.
func (p *Pair) Submit(e Entry) error {
	now := p.now()
	p.mu.Lock()
	wasEmpty := p.sq.empty()
	slot, ok := p.sq.push()
	if !ok {
		p.stats.SubmitFallbacks++
		p.mu.Unlock()
		return ErrFull
	}
	p.sqSlots[slot] = e
	p.stats.Submits++
	doorbell := false
	if wasEmpty {
		doorbell = p.arrival(&p.cons, now)
	}
	// Having submitted, the producer attends its completion ring (a
	// synchronous caller polls for the acknowledgement), so the matching
	// completion never needs a doorbell of its own.
	p.prod.idleUntil = attending
	p.mu.Unlock()
	if doorbell {
		p.ringDoorbell(p.consActor, int64(e.Descriptors))
	} else if wasEmpty {
		p.noteSpinHit(p.consActor)
	}
	return nil
}

// Drain consumes every pending submission entry in order, invoking fn on
// each outside the ring lock, and re-arms the consumer's spin window. It
// stops at the first fn error, leaving later entries queued. Returns the
// number of entries consumed.
func (p *Pair) Drain(fn func(Entry) error) (int, error) {
	n := 0
	var err error
	for {
		p.mu.Lock()
		if n == 0 {
			p.stats.Drains++
		}
		slot, ok := p.sq.pop()
		if !ok {
			p.mu.Unlock()
			break
		}
		e := p.sqSlots[slot]
		p.sqSlots[slot] = Entry{}
		p.stats.Drained++
		p.mu.Unlock()
		n++
		if err = fn(e); err != nil {
			break
		}
	}
	if n > 0 {
		p.noteDrain(p.consActor, int64(n))
	}
	now := p.now()
	p.mu.Lock()
	p.cons.idleUntil = now + p.cons.budget
	p.mu.Unlock()
	return n, err
}

// Complete places one entry on the completion ring, ringing the producer's
// doorbell on an empty→non-empty transition unless the producer is
// attending or spinning. ErrFull means the caller must deliver the payload
// directly; nothing was charged.
func (p *Pair) Complete(c Completion) error {
	now := p.now()
	p.mu.Lock()
	wasEmpty := p.cq.empty()
	slot, ok := p.cq.push()
	if !ok {
		p.stats.CompleteFallback++
		p.mu.Unlock()
		return ErrFull
	}
	p.cqSlots[slot] = c
	p.stats.Completions++
	p.stats.NoticesCoalesced += uint64(c.Notices)
	doorbell := false
	if wasEmpty {
		doorbell = p.arrival(&p.prod, now)
	}
	p.mu.Unlock()
	if doorbell {
		p.ringDoorbell(p.prodActor, int64(c.Notices))
	} else if wasEmpty {
		p.noteSpinHit(p.prodActor)
	}
	return nil
}

// DrainCompletions consumes every pending completion entry in order,
// invoking fn on each outside the ring lock, and re-arms the producer's
// spin window. Returns the number of entries consumed.
func (p *Pair) DrainCompletions(fn func(Completion)) int {
	n := 0
	for {
		p.mu.Lock()
		if n == 0 {
			p.stats.CompletionDrains++
		}
		slot, ok := p.cq.pop()
		if !ok {
			p.mu.Unlock()
			break
		}
		c := p.cqSlots[slot]
		p.cqSlots[slot] = Completion{}
		p.stats.CompletionsDrained++
		p.mu.Unlock()
		n++
		fn(c)
	}
	if n > 0 {
		p.noteDrain(p.prodActor, int64(n))
	}
	now := p.now()
	p.mu.Lock()
	p.prod.idleUntil = now + p.prod.budget
	p.mu.Unlock()
	return n
}

// ringDoorbell charges the real control-transfer crossing and attributes it
// to the current trace as a ring-doorbell span.
func (p *Pair) ringDoorbell(actor int, arg int64) {
	if o := p.sys.Obs; o != nil {
		o.SpanBegin(span.StageRing, "ring-doorbell", actor, arg)
		defer o.SpanEnd()
	}
	p.sys.Sink().Charge(p.DoorbellCost)
}

// noteSpinHit records a zero-cost span marking an arrival the spinning
// waiter caught: the audit attribution shows how many crossings the spin
// window elided (the span's duration is zero because nothing is charged).
func (p *Pair) noteSpinHit(actor int) {
	if o := p.sys.Obs; o != nil {
		o.SpanBegin(span.StageRing, "ring-spin", actor, 0)
		defer o.SpanEnd()
	}
}

// noteDrain records a zero-cost span marking a non-empty drain pass (arg is
// the entry count): shared-memory consumption charges nothing, but the
// audit attribution still shows how much traffic each ring moved.
func (p *Pair) noteDrain(actor int, arg int64) {
	if o := p.sys.Obs; o != nil {
		o.SpanBegin(span.StageRing, "ring-drain", actor, arg)
		defer o.SpanEnd()
	}
}

// SubmissionsFull reports whether the next Submit would return ErrFull.
func (p *Pair) SubmissionsFull() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sq.full()
}

// CompletionsFull reports whether the next Complete would return ErrFull.
func (p *Pair) CompletionsFull() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cq.full()
}

// Depths returns the current submission and completion ring occupancies.
func (p *Pair) Depths() (sq, cq int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.sq.occupancy()), int(p.cq.occupancy())
}

// SpinBudgets returns both sides' current adaptive spin budgets
// (producer side first) — observability for tests and the bench report.
func (p *Pair) SpinBudgets() (prod, cons simtime.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prod.budget, p.cons.budget
}

// Stats returns a snapshot of the pair's counters.
func (p *Pair) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Add accumulates o into s (aggregation across a router's pairs).
func (s *Stats) Add(o Stats) {
	s.Submits += o.Submits
	s.SubmitFallbacks += o.SubmitFallbacks
	s.Doorbells += o.Doorbells
	s.SpinHits += o.SpinHits
	s.Drains += o.Drains
	s.Drained += o.Drained
	s.Completions += o.Completions
	s.CompleteFallback += o.CompleteFallback
	s.CompletionDrains += o.CompletionDrains
	s.CompletionsDrained += o.CompletionsDrained
	s.NoticesCoalesced += o.NoticesCoalesced
}
