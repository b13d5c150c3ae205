package bench

import (
	"fmt"
	"io"
	"strings"

	"fbufs/internal/core"
	"fbufs/internal/netsim"
	"fbufs/internal/obs"
	"fbufs/internal/obs/profile"
	"fbufs/internal/obs/span"
	"fbufs/internal/protocols"
	"fbufs/internal/rings"
	"fbufs/internal/simtime"
)

// Audit run parameters: the Figure 5 cached path (user-user placement,
// cached/volatile fbufs, 16 KB PDUs) at one representative message size,
// window 1 so every transfer's latency is measured unpipelined.
const (
	auditMsgBytes = 65536
	auditCount    = 32
	// auditLatencyThreshold trips the flight recorder when a data transfer
	// exceeds it — far above the clean-run latency (~1 ms for 64 KB), so
	// only a genuine anomaly produces a dump.
	auditLatencyThreshold = simtime.Time(50 * 1e6) // 50 ms
)

// AuditResult is one latency-attribution run: the critical-path profile,
// the per-path lock-contention heatmap, the flight recorder (for Perfetto
// export), and the run's throughput result.
type AuditResult struct {
	Profile    *profile.Report
	Contention []profile.ContentionCell
	Recorder   *profile.FlightRecorder
	Result     netsim.Result
	// RingStats sums both hosts' ring-plane counters. Doorbells show up as
	// charged ring-doorbell stage time in the profile; spin hits and drains
	// consume zero simulated time (that is the point of the ring plane), so
	// the attribution carries them as counters rather than stage rows.
	RingStats rings.Stats
}

// Audit runs the end-to-end cached path with the span layer attached and
// folds every transfer into a per-stage latency attribution.
func Audit() (*AuditResult, error) {
	o := obs.New(1 << 16)
	o.Spans = span.NewRecorder(16) // the flight recorder's dump window
	prof := profile.NewProfiler()
	fr := profile.NewFlightRecorder(o)
	fr.SetLatencyThreshold("data", int64(auditLatencyThreshold))
	profile.Attach(o, prof, fr)

	// UseRings: the audited path is the syscall-free data plane, so the
	// attribution splits control transfer into ring-doorbell, ring-spin,
	// and ring-drain stages (plus the residual legacy ipc on fallbacks).
	e, err := netsim.NewE2E(netsim.Config{
		Placement: netsim.UserUser,
		Opts:      core.CachedVolatile(),
		PDUBytes:  16*1024 + protocols.UDPHeaderBytes,
		MsgBytes:  auditMsgBytes,
		Count:     auditCount,
		Window:    1,
		UseRings:  true,
		Obs:       o,
	})
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	fr.ScanEvents()

	var rstats rings.Stats
	var cells []profile.ContentionCell
	for _, h := range []*netsim.Host{e.A, e.B} {
		rstats.Add(h.Env.Router.RingStats())
		for _, pc := range h.Mgr.ContentionByPath() {
			cells = append(cells, profile.ContentionCell{
				Name:      h.Name + "." + pc.Name,
				Acquires:  pc.Acquires,
				Contended: pc.Contended,
			})
		}
	}
	profile.FillRates(cells)

	return &AuditResult{
		Profile:    prof.Report(),
		Contention: cells,
		Recorder:   fr,
		Result:     res,
		RingStats:  rstats,
	}, nil
}

// WriteTo renders the audit run as text: the attribution tables, the lock
// heatmap, and any anomalies the flight recorder caught.
func (a *AuditResult) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString("Latency attribution: fig5 cached path (user-user, 64KB messages, window 1, ring data plane)\n")
	if err := a.Profile.WriteText(&sb); err != nil {
		return 0, err
	}
	rs := a.RingStats
	fmt.Fprintf(&sb, "ring plane: %d submits, %d doorbells (charged), %d spin hits (free), %d drains moved %d entries, %d legacy fallbacks\n",
		rs.Submits, rs.Doorbells, rs.SpinHits, rs.Drains+rs.CompletionDrains,
		rs.Drained+rs.CompletionsDrained, rs.SubmitFallbacks+rs.CompleteFallback)
	sb.WriteString("lock contention by path\n")
	if err := profile.WriteContentionTable(&sb, a.Contention); err != nil {
		return 0, err
	}
	if an := a.Recorder.Anomalies(); len(an) > 0 {
		sb.WriteString("anomalies\n")
		for _, x := range an {
			fmt.Fprintf(&sb, "  %s %s %s\n", x.At, x.Kind, x.Detail)
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// AuditExperiment flattens the data path's attribution into a report
// Experiment: headline is the end-to-end p99; values carry the per-stage
// totals and p99s.
func (a *AuditResult) AuditExperiment() (Experiment, error) {
	pr := a.Profile.Path("data")
	if pr == nil {
		return Experiment{}, fmt.Errorf("bench: audit run produced no data-path traces")
	}
	vals := map[string]float64{
		"e2e p99_ns":    float64(pr.E2E.P99Ns),
		"e2e p50_ns":    float64(pr.E2E.P50Ns),
		"e2e max_ns":    float64(pr.E2E.MaxNs),
		"e2e_total_ns":  float64(pr.E2ETotalNs),
		"attributed_ns": float64(pr.AttributedNs),
		"traces":        float64(pr.Traces),
	}
	for _, row := range pr.Stages {
		k := row.Layer + "/" + row.Stage
		vals[k+" total_ns"] = float64(row.TotalNs)
		vals[k+" p99_ns"] = float64(row.Dist.P99Ns)
	}
	// Ring-plane counters: spin hits and drains are charged nothing, so
	// they appear here rather than as (zero-width) stage rows.
	vals["ring doorbells"] = float64(a.RingStats.Doorbells)
	vals["ring spin_hits"] = float64(a.RingStats.SpinHits)
	vals["ring drained_entries"] = float64(a.RingStats.Drained + a.RingStats.CompletionsDrained)
	vals["ring fallbacks"] = float64(a.RingStats.SubmitFallbacks + a.RingStats.CompleteFallback)
	return Experiment{Unit: "ns", Headline: float64(pr.E2E.P99Ns), Values: vals}, nil
}
