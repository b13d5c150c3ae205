package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// traceEvent mirrors the Chrome trace-event fields the tests care about.
type traceEvent struct {
	Ph   string  `json:"ph"`
	Name string  `json:"name"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

func runWithTrace(t *testing.T, cfg config) (string, *traceFile) {
	t.Helper()
	cfg.tracePath = filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return out.String(), &tf
}

// instants returns the instant events ("ph":"i") in file order, skipping
// the "M" metadata records.
func instants(tf *traceFile) []traceEvent {
	var evs []traceEvent
	for _, e := range tf.TraceEvents {
		if e.Ph == "i" {
			evs = append(evs, e)
		}
	}
	return evs
}

// TestCachedVolatileHop2NoMappings is the acceptance check from the issue:
// with cached/volatile fbufs, the second message through a warm path must
// build zero mappings (steady state reuses the first hop's mappings) and
// hit the per-path allocator cache.
func TestCachedVolatileHop2NoMappings(t *testing.T) {
	_, tf := runWithTrace(t, config{
		mode: "cached-volatile", pages: 4, hops: 3, ndomains: 2,
	})
	evs := instants(tf)
	if len(evs) == 0 {
		t.Fatal("trace has no instant events")
	}

	// Hop boundaries are the Alloc events: hop N runs from the Nth Alloc
	// up to (excluding) the N+1th.
	var allocIdx []int
	for i, e := range evs {
		if e.Name == "Alloc" {
			allocIdx = append(allocIdx, i)
		}
	}
	if len(allocIdx) < 3 {
		t.Fatalf("want >=3 Alloc events (one per hop), got %d", len(allocIdx))
	}

	count := func(lo, hi int, name string) int {
		n := 0
		for _, e := range evs[lo:hi] {
			if e.Name == name {
				n++
			}
		}
		return n
	}
	if n := count(allocIdx[0], allocIdx[1], "MappingBuilt"); n == 0 {
		t.Error("hop 1 built no mappings; expected lazy mapping construction")
	}
	if n := count(allocIdx[1], allocIdx[2], "MappingBuilt"); n != 0 {
		t.Errorf("hop 2 built %d mappings; cached/volatile steady state must build none", n)
	}
	if n := count(allocIdx[1], allocIdx[2], "CacheHit"); n == 0 {
		t.Error("hop 2 had no CacheHit; second alloc must come from the per-path cache")
	}
}

// TestPlainHop2StillMaps is the control: without caching, every hop pays
// for its mappings again.
func TestPlainHop2StillMaps(t *testing.T) {
	_, tf := runWithTrace(t, config{
		mode: "plain", pages: 4, hops: 2, ndomains: 2,
	})
	evs := instants(tf)
	var allocIdx []int
	for i, e := range evs {
		if e.Name == "Alloc" {
			allocIdx = append(allocIdx, i)
		}
	}
	if len(allocIdx) < 2 {
		t.Fatalf("want >=2 Alloc events, got %d", len(allocIdx))
	}
	n := 0
	for _, e := range evs[allocIdx[1]:] {
		if e.Name == "MappingBuilt" {
			n++
		}
	}
	if n == 0 {
		t.Error("plain mode hop 2 built no mappings; uncached transfers must map every time")
	}
}

// TestTraceDeterminism re-runs the same configuration and requires
// byte-identical trace files: everything is stamped with simulated time,
// so there is no run-to-run variation to export.
func TestTraceDeterminism(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		cfg := config{mode: "cached-volatile", pages: 4, hops: 3, ndomains: 3, tracePath: p}
		var out bytes.Buffer
		if err := run(&out, cfg); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different trace files")
	}
}

// TestMetricsExport checks the -metrics snapshot is valid JSON and carries
// the core counters.
func TestMetricsExport(t *testing.T) {
	cfg := config{
		mode: "cached-volatile", pages: 4, hops: 3, ndomains: 2,
		metricsPath: filepath.Join(t.TempDir(), "metrics.json"),
	}
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["core.allocs"] != 3 {
		t.Errorf("core.allocs = %d, want 3", snap.Counters["core.allocs"])
	}
	if snap.Counters["core.cache_hits"] != 2 {
		t.Errorf("core.cache_hits = %d, want 2", snap.Counters["core.cache_hits"])
	}
}

// TestStackModeTrace exercises -stack with trace export.
func TestStackModeTrace(t *testing.T) {
	cfg := config{
		mode: "cached-volatile", stack: true, msgBytes: 16384,
		tracePath: filepath.Join(t.TempDir(), "stack.json"),
	}
	var out bytes.Buffer
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Mb/s") {
		t.Error("stack mode output missing throughput line")
	}
	// The attribution folds the measured message alone, not the warm-up.
	if !strings.Contains(out.String(), "path data        traces 1 ") {
		t.Errorf("stack mode attribution is not one data trace:\n%s", out.String())
	}
	data, err := os.ReadFile(cfg.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("stack trace is not valid JSON: %v", err)
	}
	// The stack pushes packets through UDP: PktSend events must be present.
	found := false
	for _, e := range tf.TraceEvents {
		if e.Name == "PktSend" {
			found = true
			break
		}
	}
	if !found {
		t.Error("stack trace has no PktSend events")
	}
}

// TestStackAccountsForTotal checks that -stack accounts for its whole
// total in every mode: the table's end-to-end time plus the time after
// the trace ends equals the total line, and the tail is the sending
// stubs' Free once their calls return (16 pages of 4 KB: none for
// cached/volatile, 16 ProtChanges of 13 µs for cached, unmapping and
// teardown for the uncached modes).
func TestStackAccountsForTotal(t *testing.T) {
	field := func(out, re string) float64 {
		t.Helper()
		m := regexp.MustCompile(re).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("output has no match for %q:\n%s", re, out)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, tc := range []struct {
		mode   string
		tailUs float64
	}{
		{"cached-volatile", 0}, {"volatile", 136}, {"cached", 208}, {"plain", 136},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, config{mode: tc.mode, stack: true, msgBytes: 65536}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			e2e := field(out, `e2e p50 ([0-9.]+)us`)
			tail := field(out, `(?m)^after the trace: ([0-9.]+)us$`)
			total := field(out, `(?m)^total: ([0-9.]+)us`)
			if tail != tc.tailUs {
				t.Errorf("after the trace = %vus, want %vus", tail, tc.tailUs)
			}
			if e2e+tail != total {
				t.Errorf("e2e %vus + after the trace %vus != total %vus", e2e, tail, total)
			}
		})
	}
}

// TestCLIErrors is the flag-error table: every bad invocation must
// return an error (non-zero exit from main) whose text names the valid
// choices, including when -chaos/-conform would otherwise never look at
// the flag.
func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name    string
		cfg     config
		wantErr string
	}{
		{"unknown mode", config{mode: "bogus", ndomains: 2}, "valid: cached-volatile, volatile, cached, plain"},
		{"unknown mode under -chaos", config{mode: "bogus", chaos: true, seed: 1}, "valid: cached-volatile"},
		{"unknown mode under -conform", config{mode: "bogus", conform: true, seed: 1}, "valid: cached-volatile"},
		{"empty mode", config{mode: "", ndomains: 2}, "valid: cached-volatile"},
		{"too few domains", config{mode: "plain", ndomains: 1}, "at least 2 domains"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, tc.cfg)
			if err == nil {
				t.Fatal("bad invocation accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestConformMode replays a conformance seed through the CLI entry point.
func TestConformMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, config{mode: "cached-volatile", conform: true, seed: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Errorf("conform replay did not report success:\n%s", out.String())
	}
}
