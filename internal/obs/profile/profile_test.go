package profile

import (
	"bytes"
	"strings"
	"testing"

	"fbufs/internal/obs/span"
)

// mktrace assembles a trace through a real recorder so the span structure
// (IDs, parenting, root synthesis) matches production.
func mktrace(build func(r *span.Recorder, id uint64)) span.Trace {
	r := span.NewRecorder(4)
	id := r.BeginTrace(0, "data", 1024)
	build(r, id)
	done := r.Completed()
	if len(done) == 0 {
		panic("trace did not complete")
	}
	return done[len(done)-1]
}

func attributed(tr span.Trace) (map[Key]int64, int64) {
	acc := foldTrace(tr)
	var sum int64
	for _, ns := range acc {
		sum += ns
	}
	return acc, sum
}

// The fold is a partition: attributed stage time must sum to the trace's
// end-to-end duration exactly, whatever the span structure.
func TestFoldPartitionsExactly(t *testing.T) {
	tr := mktrace(func(r *span.Recorder, id uint64) {
		r.Begin(span.StageIPC, "ipc", 0, 100, 0)
		r.Begin(span.StageAlloc, "core", 0, 120, 0)
		r.End(150)
		r.End(200)
		// Pipelined link spans overlapping each other and the gap.
		r.Record(id, span.StageLink, "net", span.NoActor, 180, 400, 0)
		r.Record(id, span.StageLink, "net", span.NoActor, 250, 500, 0)
		r.EndTrace(id, 600)
	})
	acc, sum := attributed(tr)
	if e2e := int64(tr.Dur()); sum != e2e {
		t.Fatalf("attributed %d != e2e %d (acc=%v)", sum, e2e, acc)
	}
	if acc[Key{"sched", span.StageWait}] != 200 {
		t.Fatalf("wait = %d, want 200 (gaps 0..100 and 500..600); acc=%v",
			acc[Key{"sched", span.StageWait}], acc)
	}
}

// Nested span time is charged to the deepest (innermost) span.
func TestFoldDeepestWins(t *testing.T) {
	tr := mktrace(func(r *span.Recorder, id uint64) {
		r.Begin(span.StageIPC, "ipc", 0, 0, 0)
		r.Begin(span.StageAlloc, "core", 0, 10, 0)
		r.End(40)
		r.End(100)
		r.EndTrace(id, 100)
	})
	acc, sum := attributed(tr)
	if sum != 100 {
		t.Fatalf("attributed %d != 100", sum)
	}
	if acc[Key{"core", span.StageAlloc}] != 30 {
		t.Fatalf("alloc = %d, want 30", acc[Key{"core", span.StageAlloc}])
	}
	if acc[Key{"ipc", span.StageIPC}] != 70 {
		t.Fatalf("ipc = %d, want 70 (100 - nested 30)", acc[Key{"ipc", span.StageIPC}])
	}
}

// Overlapping same-depth spans must not double-count: each elementary
// interval goes to exactly one of them (the later-started).
func TestFoldOverlapNoDoubleCount(t *testing.T) {
	tr := mktrace(func(r *span.Recorder, id uint64) {
		r.Record(id, span.StageLink, "net", span.NoActor, 0, 100, 0)
		r.Record(id, span.StageDMA, "driver", 5, 50, 150, 0)
		r.EndTrace(id, 150)
	})
	acc, sum := attributed(tr)
	if sum != 150 {
		t.Fatalf("attributed %d != e2e 150 (double count?) acc=%v", sum, acc)
	}
	if acc[Key{"net", span.StageLink}] != 50 {
		t.Fatalf("link = %d, want 50 (0..50)", acc[Key{"net", span.StageLink}])
	}
	if acc[Key{"driver", span.StageDMA}] != 100 {
		t.Fatalf("dma = %d, want 100 (50..150, later start wins)", acc[Key{"driver", span.StageDMA}])
	}
}

// Spans extending past the trace end (deferred finalization) are clamped.
func TestFoldClampsOverhang(t *testing.T) {
	tr := mktrace(func(r *span.Recorder, id uint64) {
		r.Begin(span.StageProto, "udp", 0, 10, 0)
		r.EndTrace(id, 50) // sink ends the trace mid-delivery
		r.End(80)          // udp unwinds later
	})
	acc, sum := attributed(tr)
	if sum != 50 {
		t.Fatalf("attributed %d != e2e 50", sum)
	}
	if acc[Key{"udp", span.StageProto}] != 40 {
		t.Fatalf("proto = %d, want clamped 40 (10..50)", acc[Key{"udp", span.StageProto}])
	}
}

func TestProfilerReport(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 10; i++ {
		p.Add(mktrace(func(r *span.Recorder, id uint64) {
			r.Begin(span.StageIPC, "ipc", 0, 0, 0)
			r.End(110)
			r.Begin(span.StageAlloc, "core", 0, 110, 0)
			r.End(140)
			r.EndTrace(id, 200)
		}))
	}
	rep := p.Report()
	pr := rep.Path("data")
	if pr == nil || pr.Traces != 10 {
		t.Fatalf("path data = %+v", pr)
	}
	if pr.AttributedNs != pr.E2ETotalNs {
		t.Fatalf("attributed %d != e2e %d", pr.AttributedNs, pr.E2ETotalNs)
	}
	if pr.E2E.P50Ns != 200 || pr.E2E.P99Ns != 200 {
		t.Fatalf("e2e dist = %+v", pr.E2E)
	}
	// Stages sorted by total descending: ipc (1100) > wait (600) > alloc (300).
	if len(pr.Stages) != 3 || pr.Stages[0].Layer != "ipc" {
		t.Fatalf("stages = %+v", pr.Stages)
	}
	if got := pr.Stages[0].Pct; got < 54 || got > 56 {
		t.Fatalf("ipc pct = %v, want ~55", got)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"path data", "ipc", "wait", "alloc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestProfilerNilAndEmpty(t *testing.T) {
	var p *Profiler
	p.Add(span.Trace{})
	if rep := p.Report(); len(rep.Paths) != 0 {
		t.Fatal("nil profiler produced paths")
	}
	var buf bytes.Buffer
	if err := (&Report{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no completed traces") {
		t.Fatalf("empty report text = %q", buf.String())
	}
}
