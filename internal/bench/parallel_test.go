package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSMPCycleScaling pins the original cycle harness's shape: magazines
// near-linear to 4 workers, global lock saturating well below.
func TestSMPCycleScaling(t *testing.T) {
	vals, _, err := smpScalingValues()
	if err != nil {
		t.Fatal(err)
	}
	if s := vals["speedup magazine 4w"]; s < 3.5 {
		t.Errorf("magazine 4w cycle speedup = %.2f, want >= 3.5", s)
	}
	if s := vals["speedup global-lock 4w"]; s > 2.5 {
		t.Errorf("global-lock 4w cycle speedup = %.2f, want <= 2.5", s)
	}
}

// TestSMPBurstScaling is the burst sweep's acceptance gate: the depot path
// reaches >=6x at 8 workers and stays near-linear to 16, while the global
// lock stays flat.
func TestSMPBurstScaling(t *testing.T) {
	vals := make(map[string]float64)
	if _, err := smpBurstValues(SMPSeed, vals); err != nil {
		t.Fatal(err)
	}
	if s := vals["speedup burst depot 8w"]; s < 6 {
		t.Errorf("depot 8w burst speedup = %.2f, want >= 6", s)
	}
	if s := vals["speedup burst depot 16w"]; s < 12 {
		t.Errorf("depot 16w burst speedup = %.2f, want >= 12 (near-linear)", s)
	}
	if s := vals["speedup burst depot 64w"]; s < 32 {
		t.Errorf("depot 64w burst speedup = %.2f, want >= 32", s)
	}
	if s := vals["speedup burst global-lock 64w"]; s > 2 {
		t.Errorf("global-lock 64w burst speedup = %.2f, want <= 2", s)
	}
	// The depot runs must actually exchange whole units, and at 64 workers
	// the stack alone cannot hold the inventory, so spills and assemblies
	// (the sharded free lists) must both fire.
	if n := vals["burst depot 64w exchanges"]; n == 0 {
		t.Error("depot 64w run recorded no whole-unit exchanges")
	}
	if n := vals["burst depot 64w spills"]; n == 0 {
		t.Error("depot 64w run never spilled to the sharded free lists")
	}
	if n := vals["burst depot 64w assemblies"]; n == 0 {
		t.Error("depot 64w run never assembled a unit from the shards")
	}
	// Heatmap completeness: every shard has a p99 key (the baseline gate
	// errors on missing keys, so absence here would poison the baseline).
	for _, w := range smpBurstWorkerCounts {
		for s := 0; s < smpDepotShards; s++ {
			k := fmt.Sprintf("burst depot %dw shard %d wait p99_ns", w, s)
			if _, ok := vals[k]; !ok {
				t.Errorf("missing heatmap key %q", k)
			}
		}
	}
	// At 64 workers the shards must see real (modelled) queueing.
	var contended bool
	for s := 0; s < smpDepotShards; s++ {
		if vals[fmt.Sprintf("burst depot 64w shard %d wait p99_ns", s)] > 0 {
			contended = true
		}
	}
	if !contended {
		t.Error("depot 64w heatmap shows zero wait on every shard")
	}
}

// TestSMPBurstDeterministic re-runs one sweep cell per seed and requires
// bit-identical values — the property fbufbench's golden hashes of seeds
// 1-3 pin end to end.
func TestSMPBurstDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := make(map[string]float64)
		if _, err := smpBurstValues(seed, a); err != nil {
			t.Fatal(err)
		}
		b := make(map[string]float64)
		if _, err := smpBurstValues(seed, b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: burst sweep not deterministic across runs", seed)
		}
	}
}

// TestSMPReportAndCompare checks the smp plane's report experiment: its
// headline is the 8-worker depot burst speedup, and the heatmap carries
// nonzero p99_ns keys. TestReportMatchesCheckedIn compares its values
// with the checked-in report.
func TestSMPReportAndCompare(t *testing.T) {
	vals, _, err := smpAllValues(SMPSeed)
	if err != nil {
		t.Fatal(err)
	}
	if h := vals["speedup burst depot 8w"]; h < 6 {
		t.Errorf("smp report headline (depot 8w burst speedup) = %.2f, want >= 6", h)
	}
	var heat int
	for k, v := range vals {
		if v > 0 && strings.HasSuffix(k, "p99_ns") {
			heat++
		}
	}
	if heat == 0 {
		t.Fatal("no nonzero p99_ns heatmap key")
	}
}
