package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"fbufs/internal/core"
	"fbufs/internal/netsim"
	"fbufs/internal/obs"
	"fbufs/internal/obs/profile"
	"fbufs/internal/obs/span"
	"fbufs/internal/protocols"
	"fbufs/internal/simtime"
)

// netSpec is one of the two workloads that run through netsim.
type netSpec struct {
	placement netsim.Placement
	rings     bool
	size      func(seed int64) int
	warm      int // deliveries before the steady-state window opens
	fixed     int // deliveries in the modelled-time and counter window
	verify    int // messages in the verified pass
}

var (
	bulkSpec = netSpec{
		placement: netsim.UserUser,
		size:      func(seed int64) int { return 1<<20 - 256*bandIndex(seed, 16) },
		warm:      32,
		fixed:     256,
		verify:    12,
	}
	smallSpec = netSpec{
		placement: netsim.UserNetserverUser,
		rings:     true,
		size:      func(seed int64) int { return 64 + zigzag(bandIndex(seed, 3)) },
		warm:      4096,
		fixed:     8192,
		verify:    256,
	}
)

// bandIndex maps a seed onto 0..n-1, with the default seed 1 on 0.
func bandIndex(seed int64, n int) int {
	return int(((seed-1)%int64(n) + int64(n)) % int64(n))
}

// zigzag maps 0, 1, 2, 3, 4, ... onto 0, +1, -1, +2, -2, ...
func zigzag(i int) int {
	if i%2 == 1 {
		return (i + 1) / 2
	}
	return -i / 2
}

func (s netSpec) config(size int) netsim.Config {
	return netsim.Config{
		Placement: s.placement,
		Opts:      core.CachedVolatile(),
		PDUBytes:  16*1024 + protocols.UDPHeaderBytes,
		MsgBytes:  size,
		Count:     math.MaxInt32, // the delivery hook ends the run
		Window:    8,
		UseRings:  s.rings,
	}
}

// counters are public counters of the hosts, summed, and the simulated
// clock.
type counters struct {
	core                core.Stats
	ipcCalls            uint64
	doorbells, spinHits uint64
	txPDUs, rxPDUs      uint64
	rxCached            uint64
	tlbMisses           uint64
	rxBytes             uint64
	at                  simtime.Time
}

func readNet(e *netsim.E2E) counters {
	c := counters{rxBytes: e.B.Test.ReceivedBytes, at: e.Sched.Now()}
	for _, h := range []*netsim.Host{e.A, e.B} {
		addStats(&c.core, h.Mgr.Snapshot())
		c.ipcCalls += h.Env.Router.Calls
		rs := h.Env.Router.RingStats()
		c.doorbells += rs.Doorbells
		c.spinHits += rs.SpinHits
		c.txPDUs += h.Driver.TxPDUs
		c.rxPDUs += h.Driver.RxPDUs
		c.rxCached += h.Driver.RxCachedAllocs
		_, miss := h.Sys.TLB.Stats()
		c.tlbMisses += miss
	}
	return c
}

// addStats adds the core counters the per-layer metrics use.
func addStats(dst *core.Stats, s core.Stats) {
	dst.Allocs += s.Allocs
	dst.CacheHits += s.CacheHits
	dst.Transfers += s.Transfers
	dst.NoticesQueued += s.NoticesQueued
}

func runNet(s netSpec, o options, r *report) error {
	size := s.size(o.seed)
	r.note("message bytes %d", size)
	cfg := s.config(size)
	if err := verifyPass(cfg, s.verify, r); err != nil {
		return err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		setup, err := medianSetup(func() error {
			_, err := netsim.NewE2E(cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		run, err := timedNet(s, cfg, budget, nil, r)
		if err != nil {
			return err
		}
		reportEndToEnd(r, setup, run, s.fixed)
		return nil
	}

	plain, err := timedNet(s, cfg, budget/2, nil, r)
	if err != nil {
		return err
	}
	o2 := obs.New(1 << 12)
	o2.Spans = span.NewRecorder(8)
	prof := profile.NewProfiler()
	profile.Attach(o2, prof, nil)
	cfg.Obs = o2
	traced, err := timedNet(s, cfg, budget/2, prof, r)
	if err != nil {
		return err
	}
	reportNetLayers(r, traced, plain.host, s.fixed)
	return writeSpans(o, o2.Spans.Completed())
}

// verifyPass sends a short run with payload verification and requires every
// message to arrive intact and both hosts to converge.
func verifyPass(cfg netsim.Config, count int, r *report) error {
	cfg.Verify = true
	cfg.Count = count
	e, err := netsim.NewE2E(cfg)
	if err != nil {
		return fmt.Errorf("verified pass: %w", err)
	}
	res, err := e.Run()
	bad := count - res.Delivered
	if err != nil {
		r.fail(0, "verified pass: %v", err)
	}
	if vf := int(e.B.Test.VerifyFailures); vf > 0 {
		r.fail(0, "verified pass: %d payload verification failures", vf)
		bad += vf
	}
	if want := uint64(count * cfg.MsgBytes); err == nil && e.B.Test.ReceivedBytes != want {
		r.fail(0, "verified pass: received %d bytes, want %d", e.B.Test.ReceivedBytes, want)
	}
	r.count(count, min(bad, count))
	if err != nil {
		return nil
	}
	quiesce(e, count, r)
	return nil
}

// timedNet runs the closed loop until the steady-state window closes. prof,
// when non-nil, is the profiler attached to cfg.Obs.
func timedNet(s netSpec, cfg netsim.Config, budget time.Duration, prof *profile.Profiler, r *report) (runResult, error) {
	e, err := netsim.NewE2E(cfg)
	if err != nil {
		return runResult{}, err
	}
	var run runResult
	w := newWindow(s.warm, s.fixed, cfg.Window, budget)
	deliver := e.B.Test.OnDeliver
	e.B.Test.OnDeliver = func(n int) {
		switch w.n + 1 {
		case s.warm:
			run.c0, run.p0 = readNet(e), prof.Report()
		case s.warm + s.fixed:
			run.c1, run.p1 = readNet(e), prof.Report()
		}
		if w.tick() {
			e.Cfg.Count = 0 // send nothing more; in-flight messages drain
		}
		deliver(n)
	}
	res, err := e.Run()
	sent := int(e.A.Test.SentMsgs)
	r.count(sent, sent-res.Delivered)
	if err != nil {
		r.fail(0, "timed run: %v", err)
		return run, nil
	}
	if want := uint64(res.Delivered) * uint64(cfg.MsgBytes); e.B.Test.ReceivedBytes != want {
		r.fail(0, "timed run: received %d bytes, want %d", e.B.Test.ReceivedBytes, want)
	}
	if run.host, err = w.stats(); err != nil {
		r.fail(0, "timed run: %v", err)
	}
	run.simMbps = simMbps(run.c1.sub(run.c0))
	run.heapMB = liveHeapMB()
	runtime.KeepAlive(e)
	quiesce(e, sent, r)
	return run, nil
}

// quiesce tears both stacks down, delivers the notices between every live
// domain pair and requires each host to converge: nothing live, nothing
// queued, nothing leaked. A failure invalidates the run's n messages.
func quiesce(e *netsim.E2E, n int, r *report) {
	for _, h := range []*netsim.Host{e.A, e.B} {
		if err := h.Shutdown(); err != nil {
			r.fail(n, "host %s: shutdown: %v", h.Name, err)
			continue
		}
		doms := h.Reg.All()
		for _, replier := range doms {
			for _, caller := range doms {
				if replier != caller && !replier.Dead() && !caller.Dead() {
					h.Mgr.DeliverNotices(replier, caller)
				}
			}
		}
		if err := h.Mgr.CheckConverged(); err != nil {
			r.fail(n, "host %s: %v", h.Name, err)
		}
	}
}

// simRows are the module rows of the modelled per-message time, in print
// order.
var simRows = []string{
	"protocols.sim_us", "osiris.sim_us", "netsim.link_sim_us", "netsim.wait_sim_us",
	"rings.sim_us", "ipc.sim_us", "core.sim_us", "aggregate.sim_us", "vm.sim_us",
}

// moduleOf maps a profiler layer onto its module row.
func moduleOf(layer string) string {
	switch {
	case layer == "ip" || layer == "udp" || layer == "swp":
		return "protocols.sim_us"
	case strings.HasPrefix(layer, "ring-"):
		return "rings.sim_us"
	case layer == "net":
		return "netsim.link_sim_us"
	case layer == "sched":
		return "netsim.wait_sim_us"
	case layer == "osiris" || layer == "ipc" || layer == "core" || layer == "aggregate" || layer == "vm":
		return layer + ".sim_us"
	}
	return ""
}

// foldData folds the data path's (layer, stage) totals between two profiler
// snapshots into module rows per message, and returns the path's modelled
// time per message they must sum to.
func foldData(p0, p1 *profile.Report) (map[string]float64, float64, error) {
	a, b := p0.Path("data"), p1.Path("data")
	if a == nil || b == nil || b.Traces <= a.Traces {
		return nil, 0, fmt.Errorf("profiler: no data-path traces in the window")
	}
	traces := float64(b.Traces - a.Traces)
	rows := map[string]float64{}
	for _, p := range []struct {
		path *profile.PathReport
		sign float64
	}{{b, 1}, {a, -1}} {
		for _, row := range p.path.Stages {
			m := moduleOf(row.Layer)
			if m == "" {
				return nil, 0, fmt.Errorf("profiler: layer %q maps to no module", row.Layer)
			}
			rows[m] += p.sign * float64(row.TotalNs) / traces / 1e3
		}
	}
	return rows, float64(b.E2ETotalNs-a.E2ETotalNs) / traces / 1e3, nil
}

// reportNetLayers records the per-layer metrics of a traced netsim run.
func reportNetLayers(r *report, t runResult, plain hostStats, msgs int) {
	for _, row := range hostRows {
		r.set(row.name, 0, unitOf(row.name), 0) // host time inside netsim needs spans in the program
	}
	rows, perMsg, err := foldData(t.p0, t.p1)
	if err != nil {
		r.fail(0, "%v", err)
		return
	}
	sum := 0.0
	for _, name := range simRows {
		r.set(name, rows[name], "us", msgs)
		sum += rows[name]
	}
	r.note("data path modelled time per message %.3f us, module rows sum to %.3f us", perMsg, sum)
	if math.Abs(sum-perMsg) > 1e-6*perMsg {
		r.fail(0, "module rows sum to %.6f us, data path time is %.6f us", sum, perMsg)
	}
	reportCounters(r, t.c1.sub(t.c0), msgs)
	r.set("obs.trace_overhead_pct", 100*(plain.msgsPerSec/t.host.msgsPerSec-1), "%", t.host.poolMsgs)
}

func (c counters) sub(o counters) counters {
	return counters{
		core: core.Stats{
			Allocs:        c.core.Allocs - o.core.Allocs,
			CacheHits:     c.core.CacheHits - o.core.CacheHits,
			Transfers:     c.core.Transfers - o.core.Transfers,
			NoticesQueued: c.core.NoticesQueued - o.core.NoticesQueued,
		},
		ipcCalls:  c.ipcCalls - o.ipcCalls,
		doorbells: c.doorbells - o.doorbells,
		spinHits:  c.spinHits - o.spinHits,
		txPDUs:    c.txPDUs - o.txPDUs,
		rxPDUs:    c.rxPDUs - o.rxPDUs,
		rxCached:  c.rxCached - o.rxCached,
		tlbMisses: c.tlbMisses - o.tlbMisses,
		rxBytes:   c.rxBytes - o.rxBytes,
		at:        c.at - o.at,
	}
}

// reportCounters records the counter metrics of a window of msgs messages.
func reportCounters(r *report, d counters, msgs int) {
	per := func(v uint64) float64 { return float64(v) / float64(msgs) }
	r.set("core.fbuf_allocs_per_msg", per(d.core.Allocs), "count", msgs)
	r.set("core.cache_hit_pct", pct(d.core.CacheHits, d.core.Allocs), "%", msgs)
	r.set("core.transfers_per_msg", per(d.core.Transfers), "count", msgs)
	r.set("core.notices_per_msg", per(d.core.NoticesQueued), "count", msgs)
	r.set("ipc.calls_per_msg", per(d.ipcCalls), "count", msgs)
	r.set("rings.doorbells_per_msg", per(d.doorbells), "count", msgs)
	r.set("rings.spin_hit_pct", pct(d.spinHits, d.spinHits+d.doorbells), "%", msgs)
	r.set("osiris.pdus_per_msg", per(d.txPDUs), "count", msgs)
	r.set("osiris.rx_cached_pct", pct(d.rxCached, d.rxPDUs), "%", msgs)
	r.set("vm.tlb_miss_per_msg", per(d.tlbMisses), "count", msgs)
}

// simMbps is modelled throughput over a window of counters.
func simMbps(d counters) float64 {
	return simtime.Mbps(int64(d.rxBytes), simtime.Duration(d.at))
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
