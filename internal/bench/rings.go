package bench

import (
	"fmt"
	"io"
	"strings"

	"fbufs/internal/core"
	"fbufs/internal/machine"
	"fbufs/internal/netsim"
	"fbufs/internal/obs"
	"fbufs/internal/obs/profile"
	"fbufs/internal/obs/span"
	"fbufs/internal/protocols"
	"fbufs/internal/rings"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// Rings experiment parameters: the fig5 cached path (user-user placement,
// cached/volatile fbufs, 16 KB PDUs) swept over message size with the
// legacy per-transfer IPC plane and the shared-memory ring plane side by
// side, window 1 so every transfer's latency is measured unpipelined.
const (
	// RingsSeed pins the synthetic doorbell-schedule seed the JSON report
	// always uses (the text run honors -seed).
	RingsSeed     = int64(1)
	ringsCount    = 64
	ringsPDU      = 16 * 1024
	synthSubmits  = 4096
	synthBurstMax = 8
)

// ringsSizes is the swept message-size axis (bytes).
var ringsSizes = []int{64, 256, 1024, 4096, 16384, 65536}

// ringsRow is one (size, plane) measurement.
type ringsRow struct {
	Size         int
	Mbps         float64
	CrossPerMsg  float64 // charged control-transfer crossings per message
	P99Ns        int64   // end-to-end data-transfer p99
	Doorbells    uint64
	SpinHits     uint64
	LegacyCalls  uint64
	RingFallback uint64
}

// synthStats summarizes the seeded synthetic doorbell/spin schedule.
type synthStats struct {
	Seed        int64
	Submits     uint64
	Doorbells   uint64
	SpinHits    uint64
	ElisionPct  float64
	FinalBudget simtime.Duration
}

// RingsResult holds the sweep (both planes per size) and the synthetic
// schedule summary.
type RingsResult struct {
	IPC, Ring []ringsRow
	Synth     synthStats
}

// ringsRun measures one (size, plane) point on the fig5 cached path.
func ringsRun(size int, useRings bool) (ringsRow, error) {
	o := obs.New(1 << 16)
	o.Spans = span.NewRecorder(ringsCount + 8)
	prof := profile.NewProfiler()
	profile.Attach(o, prof, nil)

	e, err := netsim.NewE2E(netsim.Config{
		Placement: netsim.UserUser,
		Opts:      core.CachedVolatile(),
		PDUBytes:  ringsPDU + protocols.UDPHeaderBytes,
		MsgBytes:  size,
		Count:     ringsCount,
		Window:    1,
		UseRings:  useRings,
		Obs:       o,
	})
	if err != nil {
		return ringsRow{}, err
	}
	res, err := e.Run()
	if err != nil {
		return ringsRow{}, err
	}
	row := ringsRow{Size: size, Mbps: res.ThroughputMbps}
	for _, h := range []*netsim.Host{e.A, e.B} {
		rs := h.Env.Router.RingStats()
		row.LegacyCalls += h.Env.Router.Calls
		row.Doorbells += rs.Doorbells
		row.SpinHits += rs.SpinHits
		row.RingFallback += rs.SubmitFallbacks
	}
	row.CrossPerMsg = float64(row.LegacyCalls+row.Doorbells) / float64(res.Delivered)
	if pr := prof.Report().Path("data"); pr != nil {
		row.P99Ns = pr.E2E.P99Ns
	}
	return row, nil
}

// ringsSynthetic drives a standalone pair through a seeded submit/drain
// schedule mixing tight bursts (inside the spin window) with long idle
// gaps (past it), reporting how many crossings the adaptive policy elided.
// Deterministic per seed: fbufbench's golden test pins seeds 1-3.
func ringsSynthetic(seed int64) (synthStats, error) {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 64, vm.ClockSink{Clock: clk})
	pr, err := rings.NewPair(sys, "synthetic", 64, clk.Now, 0, 1)
	if err != nil {
		return synthStats{}, err
	}
	pr.DoorbellCost = sys.Cost.IPCLatency

	state := uint64(seed) ^ 0x5bd1e995
	for i := 0; i < synthSubmits; {
		r := simtime.SplitMix64(&state)
		burst := int(r%synthBurstMax) + 1
		if r&(1<<40) != 0 {
			// Long idle: past any spin budget, forcing a doorbell.
			clk.Advance(simtime.MS(3 + int64(r%5)))
		} else {
			// Short gap: inside a healthy spin window.
			clk.Advance(simtime.US(10 + int64(r%80)))
		}
		for j := 0; j < burst && i < synthSubmits; j++ {
			if err := pr.Submit(rings.Entry{Descriptors: 1}); err != nil {
				break
			}
			i++
		}
		if _, err := pr.Drain(func(rings.Entry) error { return nil }); err != nil {
			return synthStats{}, err
		}
	}
	st := pr.Stats()
	_, consBudget := pr.SpinBudgets()
	elision := 0.0
	if t := st.Doorbells + st.SpinHits; t > 0 {
		elision = 100 * float64(st.SpinHits) / float64(t)
	}
	return synthStats{
		Seed:        seed,
		Submits:     st.Submits,
		Doorbells:   st.Doorbells,
		SpinHits:    st.SpinHits,
		ElisionPct:  elision,
		FinalBudget: consBudget,
	}, nil
}

// Rings runs the full experiment: the size sweep under both planes plus
// the seeded synthetic schedule (seed 0 means RingsSeed).
func Rings(seed int64) (*RingsResult, error) {
	if seed == 0 {
		seed = RingsSeed
	}
	r := &RingsResult{}
	for _, size := range ringsSizes {
		ipc, err := ringsRun(size, false)
		if err != nil {
			return nil, err
		}
		ring, err := ringsRun(size, true)
		if err != nil {
			return nil, err
		}
		r.IPC = append(r.IPC, ipc)
		r.Ring = append(r.Ring, ring)
	}
	synth, err := ringsSynthetic(seed)
	if err != nil {
		return nil, err
	}
	r.Synth = synth
	return r, nil
}

// Crossover returns the smallest swept size at which the legacy plane's
// throughput is within 5% of the ring plane's — where the bottleneck has
// shifted from IPC control transfer to the single-crossing data ceiling.
// Returns 0 if the planes never converge inside the sweep.
func (r *RingsResult) Crossover() int {
	for i := range r.IPC {
		if r.Ring[i].Mbps <= 0 {
			continue
		}
		if r.IPC[i].Mbps >= 0.95*r.Ring[i].Mbps {
			return r.IPC[i].Size
		}
	}
	return 0
}

// WriteTo renders the sweep and the synthetic schedule as text tables.
func (r *RingsResult) WriteTo(w io.Writer) (int64, error) {
	t := &Table{
		Title:  "Syscall-free data plane: per-transfer IPC vs submission/completion rings (fig5 cached path, window 1)",
		Header: []string{"size", "ipc Mb/s", "ring Mb/s", "ipc xing/msg", "ring xing/msg", "xing reduction", "ipc p99 us", "ring p99 us"},
	}
	for i := range r.IPC {
		a, b := r.IPC[i], r.Ring[i]
		red := "-"
		if b.CrossPerMsg > 0 {
			red = fmt.Sprintf("%.1fx", a.CrossPerMsg/b.CrossPerMsg)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", a.Size),
			fmt.Sprintf("%.1f", a.Mbps),
			fmt.Sprintf("%.1f", b.Mbps),
			fmt.Sprintf("%.2f", a.CrossPerMsg),
			fmt.Sprintf("%.2f", b.CrossPerMsg),
			red,
			fmt.Sprintf("%.1f", float64(a.P99Ns)/1e3),
			fmt.Sprintf("%.1f", float64(b.P99Ns)/1e3),
		})
	}
	if x := r.Crossover(); x > 0 {
		t.Note = fmt.Sprintf("crossover at %d B: below it the legacy plane is IPC-latency-bound; above it both planes ride the single-crossing ceiling", x)
	} else {
		t.Note = "no crossover inside the sweep: the ring plane leads at every size"
	}
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return 0, err
	}
	s := &Table{
		Title:  fmt.Sprintf("Adaptive spin-then-block schedule (synthetic, seed %d)", r.Synth.Seed),
		Header: []string{"submits", "doorbells", "spin hits", "elision %", "final budget us"},
		Rows: [][]string{{
			fmt.Sprintf("%d", r.Synth.Submits),
			fmt.Sprintf("%d", r.Synth.Doorbells),
			fmt.Sprintf("%d", r.Synth.SpinHits),
			fmt.Sprintf("%.1f", r.Synth.ElisionPct),
			fmt.Sprintf("%.0f", float64(r.Synth.FinalBudget)/1e3),
		}},
		Note: "doorbells are the only charged crossings; spin hits are arrivals the consumer caught for free",
	}
	if _, err := s.WriteTo(&sb); err != nil {
		return 0, err
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// RingsExperiment flattens the result into a report Experiment: headline
// is the ring plane's 64 B end-to-end p99; values carry both planes'
// p99s, throughputs, and crossing rates.
func (r *RingsResult) RingsExperiment() Experiment {
	vals := map[string]float64{
		"synthetic doorbells":   float64(r.Synth.Doorbells),
		"synthetic spin_hits":   float64(r.Synth.SpinHits),
		"synthetic elision_pct": r.Synth.ElisionPct,
		"crossover_bytes":       float64(r.Crossover()),
	}
	var headline float64
	for i := range r.IPC {
		for _, m := range []struct {
			plane string
			row   ringsRow
		}{{"ipc", r.IPC[i]}, {"rings", r.Ring[i]}} {
			k := fmt.Sprintf("%s %dB", m.plane, m.row.Size)
			vals[k+" e2e p99_ns"] = float64(m.row.P99Ns)
			vals[k+" mbps"] = m.row.Mbps
			vals[k+" crossings_per_msg"] = m.row.CrossPerMsg
		}
		if r.Ring[i].Size == 64 {
			headline = float64(r.Ring[i].P99Ns)
		}
	}
	return Experiment{Unit: "ns", Headline: headline, Values: vals}
}
