package bench

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

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
	rep, err := BuildReport()
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

// TestCompareGate exercises the one regression gate the way CI runs it:
// the full report gates cleanly against itself and against a JSON round
// trip of itself, while a 20% rise of one p99 in any gated experiment, a
// missing p99 key, and a missing experiment each fail it, naming the key.
func TestCompareGate(t *testing.T) {
	rep, err := BuildReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("report schema = %d, want %d", rep.Schema, ReportSchema)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// reload returns an independent deep copy of the report.
	reload := func() *Report {
		r, err := LoadReport(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := Compare(rep, rep); err != nil {
		t.Errorf("report does not gate against itself: %v", err)
	}
	if err := Compare(reload(), rep); err != nil {
		t.Errorf("report does not gate against its JSON round trip: %v", err)
	}

	for _, name := range []string{"audit_latency_attribution", "overload", "rings", "smp_scaling"} {
		var keys []string
		for k, v := range rep.Experiments[name].Values {
			if strings.HasSuffix(k, "p99_ns") && v > 0 {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			t.Errorf("%s: no nonzero p99_ns key to regress", name)
			continue
		}
		sort.Strings(keys)
		key := keys[0]

		worse := reload()
		worse.Experiments[name].Values[key] *= 1.2
		if err := Compare(rep, worse); err == nil {
			t.Errorf("20%% regression of %s/%q passed the gate", name, key)
		} else if !strings.Contains(err.Error(), name+"/"+key) {
			t.Errorf("gate error does not name %s/%q: %v", name, key, err)
		}

		delete(worse.Experiments[name].Values, key)
		if err := Compare(rep, worse); err == nil {
			t.Errorf("missing key %s/%q passed the gate", name, key)
		} else if !strings.Contains(err.Error(), name+"/"+key) {
			t.Errorf("gate error does not name missing %s/%q: %v", name, key, err)
		}

		worse = reload()
		delete(worse.Experiments, name)
		if err := Compare(rep, worse); err == nil {
			t.Errorf("missing experiment %s passed the gate", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("gate error does not name missing experiment %s: %v", name, err)
		}
	}
}
