package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// builtReport runs every experiment once per test binary; the tests that
// need the full report only read it.
var builtReport = sync.OnceValues(BuildReport)

func TestSteadyStateCounters(t *testing.T) {
	c, err := steadyStateCounters()
	if err != nil {
		t.Fatal(err)
	}
	if c["allocs"] == 0 {
		t.Error("steady-state run recorded no allocs")
	}
	if c["cache_hits"] == 0 {
		t.Error("cached/volatile loopback recorded no cache hits")
	}
	if c["allocs"] != c["cache_hits"]+c["cache_misses"] {
		t.Errorf("allocs %v != hits %v + misses %v",
			c["allocs"], c["cache_hits"], c["cache_misses"])
	}
}

func TestReportJSONDeterministic(t *testing.T) {
	rep := &Report{Experiments: map[string]Experiment{
		"b": {Unit: "Mb/s", Headline: 2, Values: map[string]float64{"y": 2, "x": 1}},
		"a": {Unit: "us/page", Headline: 1, Values: map[string]float64{"z": 3}},
	}}
	var buf1, buf2 bytes.Buffer
	if err := rep.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("two serializations differ")
	}
	var round Report
	if err := json.Unmarshal(buf1.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if round.Experiments["b"].Headline != 2 {
		t.Error("round trip lost data")
	}
}

func TestBuildReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment")
	}
	rep, err := builtReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"table1_per_page_cost", "fig3_single_crossing", "fig4_udp_loopback",
		"fig5_end_to_end_cached", "fig6_end_to_end_uncached",
		"cpuload_rx_utilization", "loopback_steady_state_counters",
	} {
		e, ok := rep.Experiments[name]
		if !ok {
			t.Errorf("report missing experiment %q", name)
			continue
		}
		if e.Headline == 0 {
			t.Errorf("%s headline is zero", name)
		}
	}
	// The headline cached/volatile per-page cost is the paper's Table 1
	// centrepiece; pin it so report regressions are loud.
	if got := rep.Experiments["table1_per_page_cost"].Headline; got != 3.0 {
		t.Errorf("table1 cached/volatile headline = %v us/page, want 3.0", got)
	}
}

// TestReportMatchesCheckedIn is the refactor oracle and the one gate for
// modelled numbers: every one is deterministic, so the report built now
// must equal the checked-in BENCH_report.json byte for byte. A change that
// means to move a modelled number regenerates the file with
// `go run ./cmd/fbufbench -json`.
func TestReportMatchesCheckedIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment")
	}
	checkedIn, err := os.ReadFile(filepath.Join("..", "..", "BENCH_report.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := builtReport()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, got := strings.Split(string(checkedIn), "\n"), strings.Split(buf.String(), "\n")
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			t.Fatalf("report differs from BENCH_report.json at line %d:\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("report has %d lines, BENCH_report.json %d", len(got), len(want))
	}
}
