// Package simtime provides the simulated-time substrate for the fbufs
// reproduction: a virtual clock, a discrete-event scheduler, and serially
// reusable resources (CPU, bus) that accumulate utilization statistics.
//
// The unit of simulated time is the nanosecond. All performance results in
// this repository are expressed in simulated time: code paths charge explicit
// costs (from package machine) to a Clock or a Resource, and throughput is
// derived as bits transferred per simulated second. This makes the
// experiments deterministic and independent of the wall-clock speed of the
// machine running the simulation.
package simtime

import (
	"fmt"
	"sync/atomic"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// experiment.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// US constructs a Duration from microseconds; most calibrated costs are
// naturally expressed in microseconds.
func US(us int64) Duration { return Duration(us * 1000) }

// MS constructs a Duration from milliseconds.
func MS(ms int64) Duration { return Duration(ms * 1000 * 1000) }

// Microseconds returns t as a float64 microsecond count, for reporting.
func (t Time) Microseconds() float64 { return float64(t) / 1000 }

// Seconds returns t as a float64 second count, for throughput math.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats a Time in microseconds with nanosecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1000) }

// Clock is a simulated clock. The zero value is a clock at time 0.
//
// Clock reads and advances are atomic, so concurrent workers (the SMP
// benchmark mode) may share one clock without tearing; deterministic runs
// remain single-threaded, where the atomics are uncontended and free of
// observable effect.
type Clock struct {
	now atomic.Int64
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Advance moves the clock forward by d. It panics if d is negative; simulated
// time never runs backwards.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic("simtime: negative advance")
	}
	c.now.Add(int64(d))
}

// AdvanceTo moves the clock forward to t if t is in the future; a time in the
// past is ignored (the clock is monotonic).
func (c *Clock) AdvanceTo(t Time) {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Reset rewinds the clock to zero. Only experiment harnesses call this,
// between runs.
func (c *Clock) Reset() { c.now.Store(0) }

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// before orders events by (at, seq). No two events share a seq, so this is
// a strict total order and the pop order is the same for any correct heap.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is a discrete-event scheduler driving a global virtual timeline.
// The two-host end-to-end experiments use a Scheduler; the single-host
// experiments charge costs to a Clock directly.
//
// Pending events sit by value in a binary min-heap on (at, seq), so
// scheduling an event allocates nothing once the heap's array has grown
// to the run's peak.
type Scheduler struct {
	clock Clock
	queue []event
	seq   uint64
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the scheduler's current virtual time.
func (s *Scheduler) Now() Time { return s.clock.Now() }

// At schedules fn to run at absolute time t. Times in the past run at the
// current time (immediately on the next Run step), preserving order.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.clock.Now() {
		t = s.clock.Now()
	}
	s.seq++
	q := append(s.queue, event{at: t, seq: s.seq, fn: fn})
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.queue = q
}

// After schedules fn to run d nanoseconds from now.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.clock.Now()+d, fn) }

// Step runs the earliest pending event, advancing virtual time to it.
// It reports whether an event was run.
func (s *Scheduler) Step() bool {
	q := s.queue
	n := len(q) - 1
	if n < 0 {
		return false
	}
	// Copy the event out before running it: its callback may schedule
	// more, which moves the heap's entries.
	e := q[0]
	q[0] = q[n]
	q[n] = event{} // the array keeps no callback alive
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	s.queue = q
	s.clock.AdvanceTo(e.at)
	e.fn()
	return true
}

// Run drains the event queue. It returns the number of events executed.
// maxEvents bounds runaway simulations; pass 0 for no bound.
func (s *Scheduler) Run(maxEvents int) int {
	n := 0
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// RunUntil drains events with timestamps <= deadline, then advances the
// clock to the deadline.
func (s *Scheduler) RunUntil(deadline Time) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
		n++
	}
	s.clock.AdvanceTo(deadline)
	return n
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Resource models a serially reusable hardware resource (a CPU, an I/O bus)
// on the scheduler's timeline. Work submitted to a Resource executes in FIFO
// order; each unit occupies the resource for its stated duration. Busy time
// is accumulated for utilization reporting (the paper reports receive-side
// CPU load for the end-to-end experiments).
type Resource struct {
	Name      string
	sched     *Scheduler
	freeAt    Time // resource is idle from freeAt onward
	busy      Duration
	statStart Time
}

// NewResource creates a resource on the given scheduler.
func NewResource(sched *Scheduler, name string) *Resource {
	return &Resource{Name: name, sched: sched}
}

// Exec schedules work of the given duration as soon as the resource is free,
// then runs done (which may be nil) at its completion time. It returns the
// completion time.
func (r *Resource) Exec(d Duration, done func()) Time {
	return r.ExecAt(r.sched.Now(), d, done)
}

// ExecAt is like Exec but the work cannot start before t (e.g. a DMA that
// cannot begin before the cell arrives on the link).
func (r *Resource) ExecAt(t Time, d Duration, done func()) Time {
	if d < 0 {
		panic("simtime: negative resource work")
	}
	start := r.freeAt
	if start < t {
		start = t
	}
	if now := r.sched.Now(); start < now {
		start = now
	}
	end := start + d
	r.freeAt = end
	r.busy += d
	if done != nil {
		r.sched.At(end, done)
	}
	return end
}

// FreeAt returns the time at which the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// ResetStats restarts utilization accounting from the current virtual time.
func (r *Resource) ResetStats() {
	r.busy = 0
	r.statStart = r.sched.Now()
}

// BusyTime returns accumulated busy time since the last ResetStats.
func (r *Resource) BusyTime() Duration { return r.busy }

// Utilization returns busy time divided by elapsed time since the last
// ResetStats, clamped to [0, 1]. It returns 0 if no time has elapsed.
func (r *Resource) Utilization() float64 {
	elapsed := r.sched.Now() - r.statStart
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Mbps computes throughput in megabits per second for the given byte count
// over the given elapsed simulated time. It returns 0 for non-positive
// elapsed time.
func Mbps(bytes int64, elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / elapsed.Seconds()
}

// SplitMix64 advances the splitmix64 stream whose state is *state and
// returns its next output. Every seeded schedule in the simulator (fault
// verdicts, SWP backoff jitter, the overload and rings workloads) draws
// from its own stream through this one step; each caller seeds its own
// state.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
