package main

import (
	"math"
	"strings"
	"testing"
)

// run runs one workload for at least seconds, and at least past its fixed
// window.
func run(t *testing.T, workload string, seed int64, trace bool, seconds float64) *report {
	t.Helper()
	r := newReport()
	o := options{workload: workload, seed: seed, seconds: seconds, trace: trace, outDir: t.TempDir()}
	if err := workloads[workload](o, r); err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !r.correct() {
		t.Fatalf("%s seed %d: failed checks %v (attempted %d, failed %d)", workload, seed, r.problems, r.attempted, r.failed)
	}
	return r
}

// deterministic reports whether a traced metric is read from the simulated
// clock or a counter, and so must repeat exactly for one seed.
func deterministic(name string) bool {
	return name != "obs.trace_overhead_pct" &&
		(strings.HasSuffix(name, ".sim_us") || strings.HasSuffix(name, "_per_msg") || strings.HasSuffix(name, "_pct"))
}

// TestRepeatable checks that one seed gives identical modelled throughput
// and counters, and heap allocations per message within 0.1%. Allocation
// counts vary a little from run to run (Go seeds every map's hash
// randomly, which moves table growth), so that check spans a few hundred
// messages or more.
func TestRepeatable(t *testing.T) {
	for _, w := range []string{"bulk", "small", "pipeline"} {
		t.Run(w, func(t *testing.T) {
			a, b := run(t, w, 1, false, 3), run(t, w, 1, false, 3)
			if x, y := a.metrics["sim_Mbps"].Value, b.metrics["sim_Mbps"].Value; x != y {
				t.Errorf("sim_Mbps %v then %v", x, y)
			}
			if x, y := a.metrics["allocs_per_msg"].Value, b.metrics["allocs_per_msg"].Value; math.Abs(x-y) > 1e-3*x {
				t.Errorf("allocs_per_msg %v then %v", x, y)
			}
			a, b = run(t, w, 1, true, 0), run(t, w, 1, true, 0)
			for name, m := range a.metrics {
				if deterministic(name) && b.metrics[name].Value != m.Value {
					t.Errorf("%s %v then %v", name, m.Value, b.metrics[name].Value)
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that another seed draws other inputs and
// still passes every output check.
func TestSeedChangesInputs(t *testing.T) {
	if bulkSpec.size(1) != 1<<20 || smallSpec.size(1) != 64 || pipeSize(1) != 64<<10 {
		t.Fatalf("default seed sizes %d, %d, %d", bulkSpec.size(1), smallSpec.size(1), pipeSize(1))
	}
	for _, seed := range []int64{2, 3} {
		if bulkSpec.size(seed) == bulkSpec.size(1) || smallSpec.size(seed) == smallSpec.size(1) || pipeSize(seed) == pipeSize(1) {
			t.Errorf("seed %d draws the default sizes", seed)
		}
	}
	a, b := newPipeInputs(1), newPipeInputs(2)
	if string(a.payload[:64]) == string(b.payload[:64]) || a.rng.Int63() == b.rng.Int63() {
		t.Error("seeds 1 and 2 draw the same pipeline payload or fragment boundaries")
	}
	for _, w := range []string{"bulk", "small", "pipeline"} {
		r := run(t, w, 2, false, 0)
		if got := r.metrics["intact_ratio"].Value; got != 1 {
			t.Errorf("%s seed 2: intact_ratio %v", w, got)
		}
	}
}
