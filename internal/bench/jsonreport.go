package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"fbufs/internal/core"
	"fbufs/internal/protocols"
)

// Experiment is one experiment's machine-readable result: a headline
// number plus the per-row/per-series values it was drawn from.
type Experiment struct {
	// Unit of every value ("us/page", "Mb/s", "count").
	Unit string `json:"unit"`
	// Headline is the experiment's single comparison number (the paper's
	// quoted result for the fully optimized configuration).
	Headline float64 `json:"headline"`
	// Values maps row/series name to its headline value.
	Values map[string]float64 `json:"values"`
}

// ReportSchema is the BENCH_report.json schema version. Bump it when the
// report's structure or the meaning of existing keys changes.
const ReportSchema = 2

// BenchSeed is the deterministic seed baked into the benchmark workloads
// (the SWP jitter stream's default); stamped into the report so the file
// records the run configuration it was produced under.
const BenchSeed = 0x5bd1e995

// Report is the BENCH_report.json payload: every experiment's headline
// simulated metric, trackable across PRs. All metrics are simulated-time
// results, independent of the machine running the benchmarks, so the file
// only changes when the modelled system changes.
type Report struct {
	// Schema is the report format version (ReportSchema at write time).
	Schema int `json:"schema"`
	// Seed records the deterministic seed the workloads ran under.
	Seed uint64 `json:"seed"`

	Experiments map[string]Experiment `json:"experiments"`
}

// NewReport returns an empty report stamped with the current schema
// version and bench seed.
func NewReport() *Report {
	return &Report{
		Schema:      ReportSchema,
		Seed:        BenchSeed,
		Experiments: make(map[string]Experiment),
	}
}

// tableValues extracts column col of a Table keyed by the row-name column.
func tableValues(t *Table, col int) map[string]float64 {
	vals := make(map[string]float64)
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		if v, err := strconv.ParseFloat(row[col], 64); err == nil {
			vals[row[0]] = v
		}
	}
	return vals
}

// figureValues extracts each series' value at the largest message size.
func figureValues(f *Figure) map[string]float64 {
	vals := make(map[string]float64)
	for _, s := range f.Series {
		if len(s.Y) > 0 {
			vals[s.Name] = s.Y[len(s.Y)-1]
		}
	}
	return vals
}

// BuildReport runs the paper experiments and collects their headline
// simulated metrics plus the fbuf facility's key counters from a
// steady-state loopback run.
func BuildReport() (*Report, error) {
	rep := NewReport()

	t1, err := Table1()
	if err != nil {
		return nil, err
	}
	t1v := tableValues(t1, 1)
	rep.Experiments["table1_per_page_cost"] = Experiment{
		Unit:     "us/page",
		Headline: t1v["fbufs, cached/volatile"],
		Values:   t1v,
	}

	for _, fig := range []struct {
		name     string
		run      func() (*Figure, error)
		headline string
	}{
		{"fig3_single_crossing", Figure3, "fbufs, cached/volatile"},
		{"fig4_udp_loopback", Figure4, "3 domains, cached fbufs"},
		{"fig5_end_to_end_cached", Figure5, "user-user"},
		{"fig6_end_to_end_uncached", Figure6, "user-user"},
	} {
		f, err := fig.run()
		if err != nil {
			return nil, err
		}
		vals := figureValues(f)
		rep.Experiments[fig.name] = Experiment{
			Unit:     "Mb/s",
			Headline: vals[fig.headline],
			Values:   vals,
		}
	}

	cl, err := CPULoad()
	if err != nil {
		return nil, err
	}
	clVals := make(map[string]float64)
	for _, row := range cl.Rows {
		if len(row) >= 4 {
			if v, err := strconv.ParseFloat(row[3], 64); err == nil {
				clVals[row[0]+" "+row[1]+"KB rx_cpu_pct"] = v
			}
		}
	}
	var clHeadline float64
	if len(cl.Rows) > 0 && len(cl.Rows[0]) >= 4 {
		clHeadline, _ = strconv.ParseFloat(cl.Rows[0][3], 64)
	}
	rep.Experiments["cpuload_rx_utilization"] = Experiment{
		Unit:     "percent",
		Headline: clHeadline,
		Values:   clVals,
	}

	counters, err := steadyStateCounters()
	if err != nil {
		return nil, err
	}
	rep.Experiments["loopback_steady_state_counters"] = Experiment{
		Unit:     "count",
		Headline: counters["cache_hits"],
		Values:   counters,
	}

	smp, _, err := smpAllValues(SMPSeed)
	if err != nil {
		return nil, err
	}
	rep.Experiments["smp_scaling"] = Experiment{
		Unit:     "ops/s (speedups and counters unitless)",
		Headline: smp["speedup burst depot 8w"],
		Values:   smp,
	}

	audit, err := Audit()
	if err != nil {
		return nil, err
	}
	auditExp, err := audit.AuditExperiment()
	if err != nil {
		return nil, err
	}
	rep.Experiments["audit_latency_attribution"] = auditExp

	ov, err := OverloadExperiment()
	if err != nil {
		return nil, err
	}
	rep.Experiments["overload"] = ov

	rg, err := Rings(RingsSeed)
	if err != nil {
		return nil, err
	}
	rep.Experiments["rings"] = rg.RingsExperiment()
	return rep, nil
}

// steadyStateCounters runs a fixed cached/volatile loopback workload and
// returns the facility counters — the "key counters" entry of the report.
func steadyStateCounters() (map[string]float64, error) {
	r := newRig()
	src, net, sink := r.reg.New("app"), r.reg.New("netserver"), r.reg.New("receiver")
	s, err := protocols.NewLoopbackStack(r.env, protocols.StackConfig{
		Src: src, Net: net, Sink: sink,
		Opts:     core.CachedVolatile(),
		PDUBytes: 4096 + protocols.UDPHeaderBytes,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		if err := s.Send(65536); err != nil {
			return nil, err
		}
	}
	st := r.mgr.Snapshot()
	if err := st.Check(); err != nil {
		return nil, err
	}
	return map[string]float64{
		"allocs":         float64(st.Allocs),
		"cache_hits":     float64(st.CacheHits),
		"cache_misses":   float64(st.CacheMisses),
		"transfers":      float64(st.Transfers),
		"mappings_built": float64(st.MappingsBuilt),
		"secures":        float64(st.Secures),
		"frees":          float64(st.Frees),
		"recycles":       float64(st.Recycles),
		"notices_queued": float64(st.NoticesQueued),
	}, nil
}

// WriteJSON writes the report as indented JSON (map keys sorted by
// encoding/json, so identical runs are byte-identical).
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Summary returns a one-line digest (cmd/fbufbench prints it after
// writing the file).
func (r *Report) Summary() string {
	t1 := r.Experiments["table1_per_page_cost"].Headline
	f5 := r.Experiments["fig5_end_to_end_cached"].Headline
	return fmt.Sprintf("cached/volatile: %.1f us/page, %.0f Mb/s end-to-end (user-user, 1MB)", t1, f5)
}
