// Host-time measurement: this file times the program on the host, so it reads
// the wall clock on purpose. Its numbers depend on the machine and never
// feed the simulator, whose determinism contract it sits outside.
//
//detlint:parallel

package main

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"fbufs/internal/obs/profile"
)

// heapCounts are the Go heap's cumulative allocation counters.
type heapCounts struct{ bytes, objects uint64 }

func (h heapCounts) sub(o heapCounts) heapCounts {
	return heapCounts{bytes: h.bytes - o.bytes, objects: h.objects - o.objects}
}

// heapReader reads the allocation counters from runtime/metrics without
// allocating, so it can sit on a measured path.
type heapReader struct{ s [2]metrics.Sample }

func newHeapReader() *heapReader {
	r := &heapReader{}
	r.s[0].Name = "/gc/heap/allocs:bytes"
	r.s[1].Name = "/gc/heap/allocs:objects"
	return r
}

func (r *heapReader) read() heapCounts {
	metrics.Read(r.s[:])
	return heapCounts{bytes: r.s[0].Value.Uint64(), objects: r.s[1].Value.Uint64()}
}

// liveHeapMB forces a GC and returns the live Go heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setupBuilds is how many fresh rigs setup_s takes the median of: one build
// takes a few milliseconds and single samples vary several-fold.
const setupBuilds = 101

// medianSetup times setupBuilds fresh builds, each after a forced GC so one
// build's garbage does not land on the next, and returns the median in
// seconds.
func medianSetup(build func() error) (float64, error) {
	ds := make([]float64, 0, setupBuilds)
	for i := 0; i < setupBuilds; i++ {
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return median(ds), nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gapChunk is how many samples one off-heap chunk of gap storage holds.
const gapChunk = 1 << 20

// gapStore keeps one host-time sample per message in memory mapped outside
// the Go heap. Samples kept on the heap would raise the garbage collector's
// heap goal as the run goes on, so the program's garbage would be collected
// less often late in a run than early, and the benchmark would time its
// own bookkeeping.
type gapStore struct {
	chunks [][]int64
	n      int
}

func (g *gapStore) add(ns int64) error {
	if g.n == len(g.chunks)*gapChunk {
		b, err := syscall.Mmap(-1, 0, 8*gapChunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("sample storage: %w", err)
		}
		g.chunks = append(g.chunks, unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), gapChunk))
	}
	g.chunks[g.n/gapChunk][g.n%gapChunk] = ns
	g.n++
	return nil
}

func (g *gapStore) at(i int) int64 { return g.chunks[i/gapChunk][i%gapChunk] }

// release unmaps the storage.
func (g *gapStore) release() {
	for _, c := range g.chunks {
		_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), 8*gapChunk)) // only fails on a bad address
	}
	g.chunks, g.n = nil, 0
}

// The steady-state window is cut into intervals of about intervalDur of
// host time, each a whole number of sliding windows, and the host-time
// metrics come from the slow pool: the intervals with the most host time
// per message that together hold at least poolShare of the window's
// messages and at least poolMin of them (20 samples beyond p99). The
// package doc gives the reason.
const (
	intervalDur = 200 * time.Millisecond
	poolShare   = 0.10
	poolMin     = 2000
)

// interval is a run of consecutive messages in the window.
type interval struct {
	first, n int   // index of its first sample, and its messages
	ns       int64 // host time
}

// window is the steady-state measurement of a closed loop. tick is called
// once per completed message. The window opens at message warm, after free
// lists and lazily allocated frames have filled, and closes at the first
// message after the time budget once at least warm+fixed messages are done
// (the fixed window is where modelled time and counters are read, so they
// repeat exactly for one seed). It holds a whole number of periods: with a
// sliding window of k messages, sends run ahead of deliveries in bursts of
// k, and a window of whole bursts counts the work of exactly its messages.
type window struct {
	warm, fixed, period int
	budget              time.Duration

	n            int // messages completed
	closed       bool
	start, prev  time.Time
	elapsed      time.Duration
	msgs         int // messages inside the window
	heap         *heapReader
	heap0, heap1 heapCounts
	gaps         gapStore   // host ns per message
	intervals    []interval // completed intervals
	cur          interval
	err          error
}

func newWindow(warm, fixed, period int, budget time.Duration) *window {
	return &window{
		warm: warm, fixed: fixed, period: period, budget: budget, heap: newHeapReader(),
		// Room for every interval, so appending one allocates nothing the
		// window's heap counters would charge to the program.
		intervals: make([]interval, 0, 4*int(budget/intervalDur)+16),
	}
}

// tick records one completed message and reports whether the window has
// closed.
func (w *window) tick() bool {
	now := time.Now()
	w.n++
	switch {
	case w.closed:
	case w.n == w.warm:
		w.start = now
		w.heap0 = w.heap.read()
	case w.n > w.warm:
		gap := now.Sub(w.prev).Nanoseconds()
		if err := w.gaps.add(gap); err != nil {
			w.err, w.closed = err, true
			break
		}
		w.cur.n++
		w.cur.ns += gap
		if (w.n-w.warm)%w.period != 0 {
			break
		}
		if w.cur.ns >= int64(intervalDur) {
			w.intervals = append(w.intervals, w.cur)
			w.cur = interval{first: w.cur.first + w.cur.n}
		}
		if w.n >= w.warm+w.fixed && now.Sub(w.start) >= w.budget {
			w.closed = true
			w.elapsed = now.Sub(w.start)
			w.msgs = w.n - w.warm
			w.heap1 = w.heap.read()
		}
	}
	w.prev = now
	return w.closed
}

// hostStats summarizes a closed window.
type hostStats struct {
	msgs         int     // messages in the window
	poolMsgs     int     // messages in the slow pool
	msgsPerSec   float64 // over the slow pool
	p50us, p99us float64 // over the slow pool
	beyondP99    int     // pooled samples above the p99 sample
	windowRate   float64 // messages per second over the whole window
	allocKB      float64 // per message, over the whole window
	allocs       float64 // per message, over the whole window
}

// stats summarizes the window and releases its samples.
func (w *window) stats() (hostStats, error) {
	defer w.gaps.release()
	if w.err != nil {
		return hostStats{}, w.err
	}
	ivs := slices.Clone(w.intervals)
	slices.SortFunc(ivs, func(a, b interval) int { // slowest per message first
		return cmp.Compare(b.ns*int64(a.n), a.ns*int64(b.n))
	})
	need := max(poolMin, int(poolShare*float64(w.msgs)))
	var pool []int64
	var ns int64
	for _, iv := range ivs {
		if len(pool) >= need {
			break
		}
		for i := iv.first; i < iv.first+iv.n; i++ {
			pool = append(pool, w.gaps.at(i))
		}
		ns += iv.ns
	}
	n := len(pool)
	if n == 0 {
		return hostStats{}, fmt.Errorf("steady-state window holds no whole interval of %v", intervalDur)
	}
	slices.Sort(pool)
	i99 := (99*n+99)/100 - 1 // nearest rank
	d := w.heap1.sub(w.heap0)
	return hostStats{
		msgs:       w.msgs,
		poolMsgs:   n,
		msgsPerSec: float64(n) / (float64(ns) / 1e9),
		p50us:      float64(pool[(n+1)/2-1]) / 1e3,
		p99us:      float64(pool[i99]) / 1e3,
		beyondP99:  n - 1 - i99,
		windowRate: float64(w.msgs) / w.elapsed.Seconds(),
		allocKB:    float64(d.bytes) / 1024 / float64(w.msgs),
		allocs:     float64(d.objects) / float64(w.msgs),
	}, nil
}

// runResult is what one timed run measured.
type runResult struct {
	host    hostStats
	heapMB  float64
	simMbps float64
	c0, c1  counters        // at the ends of the fixed window
	p0, p1  *profile.Report // netsim profiler snapshots there (traced runs)
	tr      *tracer         // pipeline spans (traced runs)
}

// reportEndToEnd records the end-to-end metrics of an untraced run whose
// modelled throughput covers fixed messages.
func reportEndToEnd(r *report, setup float64, run runResult, fixed int) {
	r.set("setup_s", setup, "s", setupBuilds)
	h := run.host
	r.set("msgs_per_s", h.msgsPerSec, "msg/s", h.poolMsgs)
	r.set("host_us_p50", h.p50us, "us", h.poolMsgs)
	r.set("host_us_p99", h.p99us, "us", h.poolMsgs)
	r.note("  slow pool: %d of the window's %d messages (%.1f%%), %d samples beyond p99; whole window %.6g msg/s",
		h.poolMsgs, h.msgs, 100*float64(h.poolMsgs)/float64(h.msgs), h.beyondP99, h.windowRate)
	r.set("alloc_KB_per_msg", h.allocKB, "KB", h.msgs)
	r.set("allocs_per_msg", h.allocs, "count", h.msgs)
	if h.beyondP99 < 10 {
		r.note("  warning: fewer than 10 samples beyond p99; lengthen the run")
	}
	r.set("heap_MB", run.heapMB, "MB", 0)
	r.set("sim_Mbps", run.simMbps, "Mb/s", fixed)
	r.set("intact_ratio", float64(r.attempted-r.failed)/float64(r.attempted), "ratio", r.attempted)
}
