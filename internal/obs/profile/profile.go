// Package profile folds completed transfer traces (internal/obs/span) into
// latency attribution: for every transfer path (trace label) it answers
// "where did this transfer's time go", per layer and per stage, with log2
// percentiles across transfers — the critical-path view behind the paper's
// Figure 5 argument that control transfer dominates the cached path.
//
// The fold is a timeline sweep, not a parent-minus-children subtraction:
// every elementary interval between span boundaries (clamped to the trace's
// [start, end]) is attributed to the *deepest* span covering it, and time
// covered by no child span at all becomes synthetic StageWait ("sched")
// time. Because the sweep partitions the end-to-end interval exactly, the
// per-stage totals always sum to the end-to-end time — even when pipelined
// spans overlap (a PDU on the link while the CPU builds the next one),
// which a naive per-span sum would double-count.
//
// The package also hosts the flight recorder (flightrec.go).
package profile

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
)

// Key identifies one attribution bucket: the emitting layer plus the stage.
type Key struct {
	Layer string
	Stage span.Stage
}

// stageAgg accumulates one (layer, stage) bucket within a path.
type stageAgg struct {
	traces int64 // transfers in which the stage appeared
	total  int64 // summed attributed ns across transfers
	hist   obs.Histogram
}

// pathAgg accumulates one transfer path (trace label).
type pathAgg struct {
	traces   int64
	e2eTotal int64
	e2e      obs.Histogram
	stages   map[Key]*stageAgg
}

// Profiler folds completed traces into per-path, per-stage attribution.
// A nil *Profiler ignores every call.
type Profiler struct {
	mu    sync.Mutex
	paths map[string]*pathAgg
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{paths: make(map[string]*pathAgg)}
}

// Add folds one completed trace. Safe on nil; safe for concurrent use.
func (p *Profiler) Add(tr span.Trace) {
	if p == nil || len(tr.Spans) == 0 {
		return
	}
	attr := foldTrace(tr)
	label := tr.Label
	if label == "" {
		label = "unlabeled"
	}
	e2e := int64(tr.Dur())
	p.mu.Lock()
	pa := p.paths[label]
	if pa == nil {
		pa = &pathAgg{stages: make(map[Key]*stageAgg)}
		p.paths[label] = pa
	}
	pa.traces++
	pa.e2eTotal += e2e
	pa.e2e.Observe(e2e)
	for k, ns := range attr {
		sa := pa.stages[k]
		if sa == nil {
			sa = &stageAgg{}
			pa.stages[k] = sa
		}
		sa.traces++
		sa.total += ns
		sa.hist.Observe(ns)
	}
	p.mu.Unlock()
}

// foldTrace partitions one trace's [Start, End] interval across its spans:
// each elementary interval goes to the deepest covering span (ties: later
// start, then higher ID — the most recently opened wins), and uncovered
// time becomes StageWait. The returned totals sum to the trace duration.
func foldTrace(tr span.Trace) map[Key]int64 {
	acc := make(map[Key]int64)
	start, end := tr.Start, tr.End
	if end <= start {
		return acc
	}

	// Depth via the parent chain; parents may appear after children in the
	// slice (completion order), so resolve through an ID index with memoing.
	byID := make(map[uint32]int, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].ID] = i
	}
	depth := make(map[uint32]int, len(tr.Spans))
	depth[span.RootID] = 0
	var depthOf func(id uint32, hops int) int
	depthOf = func(id uint32, hops int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		if hops > len(tr.Spans) { // cycle guard: malformed parent chain
			return 1
		}
		i, ok := byID[id]
		if !ok {
			return 1
		}
		d := depthOf(tr.Spans[i].Parent, hops+1) + 1
		depth[id] = d
		return d
	}

	// Child spans, clamped to the trace interval. Spans may end after the
	// trace does (the sink ends the trace before the delivery chain
	// unwinds); the overhang is not transfer latency and is cut off.
	type cspan struct {
		lo, hi simtime.Time
		d      int
		start  simtime.Time
		id     uint32
		key    Key
	}
	spans := make([]cspan, 0, len(tr.Spans))
	bounds := make([]simtime.Time, 0, 2*len(tr.Spans))
	bounds = append(bounds, start, end)
	for _, s := range tr.Spans {
		if s.ID == span.RootID {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi <= lo {
			continue
		}
		spans = append(spans, cspan{
			lo: lo, hi: hi, d: depthOf(s.ID, 0), start: s.Start, id: s.ID,
			key: Key{Layer: s.Layer, Stage: s.Stage},
		})
		bounds = append(bounds, lo, hi)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	waitKey := Key{Layer: "sched", Stage: span.StageWait}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		best := -1
		for j := range spans {
			s := &spans[j]
			if s.lo > lo || s.hi < hi {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			b := &spans[best]
			if s.d > b.d ||
				(s.d == b.d && (s.start > b.start ||
					(s.start == b.start && s.id > b.id))) {
				best = j
			}
		}
		dur := int64(hi - lo)
		if best < 0 {
			acc[waitKey] += dur
		} else {
			acc[spans[best].key] += dur
		}
	}
	return acc
}

// Dist summarizes a latency distribution in nanoseconds.
type Dist struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P90Ns int64 `json:"p90_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
}

func distOf(count int64, h *obs.Histogram) Dist {
	return Dist{
		Count: count,
		P50Ns: h.Percentile(50),
		P90Ns: h.Percentile(90),
		P99Ns: h.Percentile(99),
		MaxNs: h.Percentile(100),
	}
}

// StageRow is one attribution bucket of a path: how much of the path's time
// one (layer, stage) pair consumed, and its per-transfer distribution.
type StageRow struct {
	Layer   string  `json:"layer"`
	Stage   string  `json:"stage"`
	TotalNs int64   `json:"total_ns"`
	Pct     float64 `json:"pct"` // share of the path's end-to-end time
	Dist    Dist    `json:"dist"`
}

// PathReport is the attribution for one transfer path (trace label).
type PathReport struct {
	Label        string     `json:"label"`
	Traces       int64      `json:"traces"`
	E2ETotalNs   int64      `json:"e2e_total_ns"`
	AttributedNs int64      `json:"attributed_ns"` // == E2ETotalNs by construction
	E2E          Dist       `json:"e2e"`
	Stages       []StageRow `json:"stages"` // sorted by TotalNs descending
}

// Report is the profiler's full output, one entry per path, sorted by label.
type Report struct {
	Paths []PathReport `json:"paths"`
}

// Path returns the report for one label, or nil.
func (r *Report) Path(label string) *PathReport {
	if r == nil {
		return nil
	}
	for i := range r.Paths {
		if r.Paths[i].Label == label {
			return &r.Paths[i]
		}
	}
	return nil
}

// Report snapshots the profiler into a Report. Safe on nil.
func (p *Profiler) Report() *Report {
	rep := &Report{}
	if p == nil {
		return rep
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	labels := make([]string, 0, len(p.paths))
	for l := range p.paths {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		pa := p.paths[l]
		pr := PathReport{
			Label:      l,
			Traces:     pa.traces,
			E2ETotalNs: pa.e2eTotal,
			E2E:        distOf(pa.traces, &pa.e2e),
		}
		for k, sa := range pa.stages {
			row := StageRow{
				Layer:   k.Layer,
				Stage:   k.Stage.String(),
				TotalNs: sa.total,
				Dist:    distOf(sa.traces, &sa.hist),
			}
			if pa.e2eTotal > 0 {
				row.Pct = 100 * float64(sa.total) / float64(pa.e2eTotal)
			}
			pr.AttributedNs += sa.total
			pr.Stages = append(pr.Stages, row)
		}
		sort.Slice(pr.Stages, func(i, j int) bool {
			a, b := pr.Stages[i], pr.Stages[j]
			if a.TotalNs != b.TotalNs {
				return a.TotalNs > b.TotalNs
			}
			if a.Layer != b.Layer {
				return a.Layer < b.Layer
			}
			return a.Stage < b.Stage
		})
		rep.Paths = append(rep.Paths, pr)
	}
	return rep
}

// WriteText renders the report as an aligned attribution table.
func (r *Report) WriteText(w io.Writer) error {
	if r == nil || len(r.Paths) == 0 {
		_, err := fmt.Fprintln(w, "profile: no completed traces")
		return err
	}
	for _, pr := range r.Paths {
		_, err := fmt.Fprintf(w, "path %-10s  traces %-6d e2e p50 %s  p99 %s  max %s\n",
			pr.Label, pr.Traces,
			simtime.Time(pr.E2E.P50Ns), simtime.Time(pr.E2E.P99Ns), simtime.Time(pr.E2E.MaxNs))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s %-8s %8s %7s %12s %12s %12s\n",
			"layer", "stage", "pct", "traces", "p50", "p99", "max")
		for _, row := range pr.Stages {
			_, err := fmt.Fprintf(w, "  %-12s %-8s %7.2f%% %7d %12s %12s %12s\n",
				row.Layer, row.Stage, row.Pct, row.Dist.Count,
				simtime.Time(row.Dist.P50Ns), simtime.Time(row.Dist.P99Ns),
				simtime.Time(row.Dist.MaxNs))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Attach wires a profiler and an optional flight recorder to an observer's
// span recorder: every completed trace feeds both. Safe when any argument
// is nil (missing pieces are skipped).
func Attach(o *obs.Observer, p *Profiler, fr *FlightRecorder) {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.OnComplete(func(tr span.Trace) {
		p.Add(tr)
		fr.OnTrace(tr)
	})
}
