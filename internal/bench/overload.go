package bench

import (
	"fmt"

	"fbufs/internal/core"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/simtime"
	"fbufs/internal/xfer"
)

// The overload scenario drives the facility the way a production box dies:
// thousands of clients zipf-routed onto a few dozen connections, three
// tenant classes with very different message sizes and connection churn,
// more live data paths than the path cache has slots, and an admission
// budget deliberately too small for the most aggressive class. The run
// measures what the robustness machinery buys — per-class p50/p99 latency,
// path-cache thrash under each eviction policy, admission rejections, and
// the copy-fallback duty cycle — and ends with the chaos-style convergence
// check: everything closed, notices drained, zero leaked fbufs or frames.
//
// Everything is a pure function of the seed: arrivals, routing, churn, and
// payload sampling come from a private splitmix64 stream, and time is the
// rig's simulated clock, so the table and the JSON experiment are
// byte-identical across runs and machines.

// overloadSeeds is the seed matrix the text table sweeps; fbufbench's
// golden test also runs each alone. The JSON experiment pins
// overloadSeeds[0], so the checked-in report compares like with like.
var overloadSeeds = []int64{1, 2, 3}

const (
	// overloadRequests is the per-run request count after warmup.
	overloadRequests = 4000
	// overloadClients is the simulated client population; requests pick a
	// client by a squared-zipf draw, so a small hot set dominates.
	overloadClients = 2000
	// overloadBudget is the admission budget in chunks. With weights
	// 1/4/2 the quickstart class's share (7) is far below its 24
	// connections, forcing rejections and copy-path degradation; the
	// video class (28) never rejects.
	overloadBudget = 49
	// overloadSendEvery samples payload integrity: every Nth request is a
	// full Send with a seeded payload verified on the receive side.
	overloadSendEvery = 64
)

// overloadPolicies are the eviction policies the sweep compares on the
// identical seeded schedule.
var overloadPolicies = []string{"mru16", "lru", "size", "pinned-lru"}

// overloadTenant is one tenant class's shape.
type overloadTenant struct {
	name       string
	weight     int // admission weight
	conns      int // concurrently open connections (data paths)
	pages      int // fbuf size in pages
	churnEvery int // close+reopen one connection every N class requests
	pinned     bool
}

// overloadTenants is the production-shaped mix: many small quickstart
// connections with high churn, a few fat pinned video streams, and a
// middling netserver tier. 48 paths over a 16-entry cache guarantees
// capacity pressure.
var overloadTenants = []overloadTenant{
	{name: "quick", weight: 1, conns: 24, pages: 1, churnEvery: 48},
	{name: "video", weight: 4, conns: 8, pages: 8, churnEvery: 512, pinned: true},
	{name: "net", weight: 2, conns: 16, pages: 4, churnEvery: 160},
}

// overloadMix maps client-id mod 10 to a tenant index: 50% quickstart,
// 30% netserver, 20% video.
var overloadMix = [10]int{0, 0, 0, 0, 0, 2, 2, 2, 1, 1}

// overloadRng is a private splitmix64 stream (same generator as the fault
// plane) so the schedule is a pure function of the seed.
type overloadRng struct{ s uint64 }

func (r *overloadRng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(simtime.SplitMix64(&r.s) % uint64(n))
}

// overloadClassRun is one tenant class's measured outcome.
type overloadClassRun struct {
	requests uint64
	p50, p99 int64 // latency, simulated ns
	rejects  uint64
	fast     uint64 // adaptive fast hops, aggregated over churned conns too
	copies   uint64 // adaptive copy hops
}

// overloadRun is one (seed, policy) run's outcome.
type overloadRun struct {
	seed    int64
	policy  string
	classes map[string]*overloadClassRun
	stats   core.Stats
	ad      xfer.AdaptiveStats // aggregate across every connection opened
	thrash  float64            // CacheMisses / Allocs
}

// copyDuty is the fraction of successful hops that rode the copy path.
func (o *overloadRun) copyDuty() float64 {
	total := o.ad.FastHops + o.ad.CopyHops
	if total == 0 {
		return 0
	}
	return float64(o.ad.CopyHops) / float64(total)
}

// overloadConn is one live connection.
type overloadConn struct {
	ad   *xfer.Adaptive
	spec overloadTenant
}

// runOverload executes the seeded schedule on a fresh rig under the named
// eviction policy and verifies convergence before returning.
func runOverload(seed int64, policyName string) (*overloadRun, error) {
	pol, ok := core.PolicyByName(policyName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown eviction policy %q", policyName)
	}
	r := newRig()
	r.mgr.SetPathCache(core.DefaultCacheEntries, pol)
	adm := core.NewAdmission(overloadBudget)
	tenants := make(map[string]*core.TenantClass, len(overloadTenants))
	for _, t := range overloadTenants {
		tenants[t.name] = adm.Class(t.name, t.weight)
	}
	r.mgr.SetAdmission(adm)

	// Latency histograms live in a run-local observer (percentiles come
	// from the obs layer's log2 histograms); samples are mirrored into
	// the fbufbench observer when one is attached. The nil-safe obs API
	// makes the mirror free when it is not.
	lo := obs.New(8)
	lo.SetNow(r.clk.Now)

	baseline := r.sys.Mem.Allocated()

	run := &overloadRun{seed: seed, policy: policyName,
		classes: make(map[string]*overloadClassRun, len(overloadTenants))}
	for _, t := range overloadTenants {
		run.classes[t.name] = &overloadClassRun{}
	}
	retire := func(c *overloadConn) {
		st := c.ad.Stats
		run.ad.FastHops += st.FastHops
		run.ad.CopyHops += st.CopyHops
		run.ad.Episodes += st.Episodes
		run.ad.Recoveries += st.Recoveries
		run.ad.ProbeFailures += st.ProbeFailures
		cl := run.classes[c.spec.name]
		cl.fast += st.FastHops
		cl.copies += st.CopyHops
		c.ad.Close()
	}

	open := func(spec overloadTenant) (*overloadConn, error) {
		ad, err := xfer.NewAdaptive(r.mgr, r.src, r.dst,
			core.CachedVolatile(), spec.pages*machine.PageSize)
		if err != nil {
			return nil, err
		}
		ad.RetryEvery = 2 // probe aggressively: recoveries are under test
		p := ad.Path()
		p.SetTenant(tenants[spec.name])
		p.SetPinned(spec.pinned)
		return &overloadConn{ad: ad, spec: spec}, nil
	}

	conns := make(map[string][]*overloadConn, len(overloadTenants))
	for _, t := range overloadTenants {
		for i := 0; i < t.conns; i++ {
			c, err := open(t)
			if err != nil {
				return nil, fmt.Errorf("bench: overload open %s conn: %w", t.name, err)
			}
			conns[t.name] = append(conns[t.name], c)
		}
	}

	// Warmup and service-time calibration: one cold round to build
	// mappings, one measured round whose mean hop cost scales the
	// arrival process and the accept-queue bound.
	var warmHops int
	var warmStart simtime.Time
	for round := 0; round < 2; round++ {
		if round == 1 {
			warmStart = r.clk.Now()
		}
		for _, t := range overloadTenants {
			for _, c := range conns[t.name] {
				if err := c.ad.Hop(); err != nil {
					return nil, fmt.Errorf("bench: overload warmup hop (%s): %w", t.name, err)
				}
				if round == 1 {
					warmHops++
				}
			}
		}
	}
	meanService := int64(r.clk.Now()-warmStart) / int64(warmHops)
	if meanService <= 0 {
		meanService = 1
	}
	// Mean interarrival ≈ 1.7× the mean service time, but 85% of gaps
	// are 0.75× — sustained bursts push utilization past 1 and build
	// queue, and the heavy tail (32×) drains it. The accept queue is
	// bounded at 16 services: past that, arrivals are held at the door
	// (the timeline is clamped), modelling a finite listen backlog.
	interBase := meanService * 3 / 4
	backlogCap := meanService * 16

	rng := overloadRng{s: uint64(seed)}
	churns := make(map[string]int, len(overloadTenants))
	arrival := r.clk.Now()
	payload := make([]byte, 32)

	for req := 0; req < overloadRequests; req++ {
		// Heavy-tailed open-loop arrivals.
		gap := interBase
		switch v := rng.intn(100); {
		case v >= 97:
			gap *= 32
		case v >= 85:
			gap *= 4
		}
		arrival += simtime.Duration(gap)
		now := r.clk.Now()
		if arrival > now {
			arrival = now // server idle: next request arrives "now"
		} else if now-arrival > simtime.Duration(backlogCap) {
			arrival = now - simtime.Duration(backlogCap)
		}
		wait := now - arrival

		// Squared-zipf client draw: a small hot set dominates.
		client := rng.intn(overloadClients)
		client = client * client / overloadClients
		spec := overloadTenants[overloadMix[client%10]]
		cl := run.classes[spec.name]
		conn := conns[spec.name][(client/10)%spec.conns]

		start := r.clk.Now()
		var err error
		if req%overloadSendEvery == 0 {
			for i := range payload {
				payload[i] = byte(uint64(req) + uint64(i)*0x9e)
			}
			var echo []byte
			echo, err = conn.ad.Send(payload)
			if err == nil {
				for i := range payload {
					if echo[i] != payload[i] {
						return nil, fmt.Errorf("bench: overload payload corrupt at req %d byte %d", req, i)
					}
				}
			}
		} else {
			err = conn.ad.Hop()
		}
		if err != nil {
			// Alloc exhaustion is absorbed by the adaptive facility;
			// anything surfacing here is a real bug.
			return nil, fmt.Errorf("bench: overload req %d (%s): %w", req, spec.name, err)
		}
		latency := int64(wait + (r.clk.Now() - start))
		cl.requests++
		name := "overload." + spec.name + ".latency_ns"
		lo.Observe(name, latency)
		if observer != nil {
			observer.Observe(name, latency)
		}

		// Connection churn: close and reopen one of the class's
		// connections on a rotating index.
		churnCount := int(cl.requests)
		if churnCount%spec.churnEvery == 0 {
			idx := churns[spec.name] % spec.conns
			churns[spec.name]++
			retire(conns[spec.name][idx])
			c, err := open(spec)
			if err != nil {
				return nil, fmt.Errorf("bench: overload churn reopen %s: %w", spec.name, err)
			}
			conns[spec.name][idx] = c
		}
	}

	for _, t := range overloadTenants {
		for _, c := range conns[t.name] {
			retire(c)
		}
	}
	// Chaos-style convergence: notices drained both ways, caches
	// reclaimed, nothing live, queued, or leaked.
	r.mgr.DeliverNotices(r.src, r.dst)
	r.mgr.DeliverNotices(r.dst, r.src)
	for r.mgr.ReclaimIdle(1024) > 0 {
	}
	if err := r.mgr.CheckConverged(); err != nil {
		return nil, fmt.Errorf("bench: overload seed %d policy %s: %w", seed, policyName, err)
	}
	want := baseline + r.mgr.EmptyLeafFrames()
	if got := r.sys.Mem.Allocated(); got != want {
		return nil, fmt.Errorf("bench: overload seed %d policy %s: frame leak: %d allocated, want %d",
			seed, policyName, got, want)
	}
	st := r.mgr.Snapshot()
	if err := st.Check(); err != nil {
		return nil, fmt.Errorf("bench: overload seed %d policy %s: %w", seed, policyName, err)
	}
	run.stats = st
	if st.Allocs > 0 {
		run.thrash = float64(st.CacheMisses) / float64(st.Allocs)
	}
	for _, t := range overloadTenants {
		cl := run.classes[t.name]
		h := lo.Metrics.Histogram("overload." + t.name + ".latency_ns")
		cl.p50 = h.Percentile(50)
		cl.p99 = h.Percentile(99)
		cl.rejects = tenants[t.name].Rejects()
	}

	// The scenario must actually have exercised the machinery it claims
	// to measure; a quiet run is a configuration bug, not a result.
	if st.PathEvictions == 0 {
		return nil, fmt.Errorf("bench: overload seed %d policy %s: no path evictions", seed, policyName)
	}
	if st.AdmissionRejects == 0 {
		return nil, fmt.Errorf("bench: overload seed %d policy %s: no admission rejects", seed, policyName)
	}
	if run.ad.Episodes == 0 || run.ad.Recoveries == 0 {
		return nil, fmt.Errorf("bench: overload seed %d policy %s: degradation not exercised (episodes=%d recoveries=%d)",
			seed, policyName, run.ad.Episodes, run.ad.Recoveries)
	}
	return run, nil
}

// overloadSweep runs every eviction policy on the same seeded schedule
// and checks that LRU beats the paper's MRU-16 on cache thrash (zipf-hot
// paths evict each other under MRU; LRU keeps the hot set resident).
func overloadSweep(seed int64) (map[string]*overloadRun, error) {
	runs := make(map[string]*overloadRun, len(overloadPolicies))
	for _, pol := range overloadPolicies {
		run, err := runOverload(seed, pol)
		if err != nil {
			return nil, err
		}
		runs[pol] = run
	}
	if runs["lru"].thrash >= runs["mru16"].thrash {
		return nil, fmt.Errorf("bench: overload seed %d: lru thrash %.4f did not beat mru16 %.4f",
			seed, runs["lru"].thrash, runs["mru16"].thrash)
	}
	return runs, nil
}

// Overload runs the production-shaped overload scenario over the seed
// matrix (or a single seed when seeds is non-empty) and tabulates
// per-class latency plus the eviction-policy sweep. Any robustness
// violation — corruption, leak, failed convergence, a policy sweep where
// LRU fails to beat MRU-16 — comes back as an error.
func Overload(seeds ...int64) (*Table, error) {
	if len(seeds) == 0 {
		seeds = overloadSeeds
	}
	t := &Table{
		Title: "Overload: production-shaped multi-tenant saturation",
		Note: "2000 zipf-routed clients over 48 churning connections in three tenant\n" +
			"classes (quick=1pg w1, video=8pg w4 pinned, net=4pg w2), a 16-entry\n" +
			"path cache, and an admission budget of 49 chunks. Latency is simulated\n" +
			"queueing wait plus service. Per-policy rows compare cache thrash\n" +
			"(misses/allocs) on the identical schedule; every run must converge\n" +
			"with zero leaked fbufs or frames.",
		Header: []string{"seed", "policy", "class", "reqs", "p50 us", "p99 us",
			"rejects", "evictions", "thrash", "copy duty"},
	}
	for _, seed := range seeds {
		runs, err := overloadSweep(seed)
		if err != nil {
			return nil, err
		}
		main := runs["mru16"]
		for _, spec := range overloadTenants {
			cl := main.classes[spec.name]
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(seed), "mru16", spec.name,
				fmt.Sprint(cl.requests),
				fmt.Sprintf("%.1f", float64(cl.p50)/1000),
				fmt.Sprintf("%.1f", float64(cl.p99)/1000),
				fmt.Sprint(cl.rejects),
				fmt.Sprint(main.stats.PathEvictions),
				fmt.Sprintf("%.3f", main.thrash),
				fmt.Sprintf("%.2f", classDuty(cl)),
			})
		}
		for _, pol := range overloadPolicies {
			if pol == "mru16" {
				continue
			}
			run := runs[pol]
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(seed), pol, "(all)",
				fmt.Sprint(overloadRequests), "-", "-",
				fmt.Sprint(run.stats.AdmissionRejects),
				fmt.Sprint(run.stats.PathEvictions),
				fmt.Sprintf("%.3f", run.thrash),
				fmt.Sprintf("%.2f", run.copyDuty()),
			})
		}
	}
	return t, nil
}

// classDuty is the per-class copy duty cycle.
func classDuty(cl *overloadClassRun) float64 {
	total := cl.fast + cl.copies
	if total == 0 {
		return 0
	}
	return float64(cl.copies) / float64(total)
}

// OverloadExperiment runs the policy sweep on the pinned report seed and
// flattens it into the report experiment the CI p99 gate compares.
func OverloadExperiment() (Experiment, error) {
	runs, err := overloadSweep(overloadSeeds[0])
	if err != nil {
		return Experiment{}, err
	}
	main := runs["mru16"]
	vals := map[string]float64{
		"evictions":         float64(main.stats.PathEvictions),
		"admission_rejects": float64(main.stats.AdmissionRejects),
		"fast_hops":         float64(main.ad.FastHops),
		"copy_hops":         float64(main.ad.CopyHops),
		"episodes":          float64(main.ad.Episodes),
		"recoveries":        float64(main.ad.Recoveries),
		"probe_failures":    float64(main.ad.ProbeFailures),
		"copy_duty_pct":     100 * main.copyDuty(),
	}
	for _, spec := range overloadTenants {
		cl := main.classes[spec.name]
		vals[spec.name+" p50_ns"] = float64(cl.p50)
		vals[spec.name+" p99_ns"] = float64(cl.p99)
		vals[spec.name+" rejects"] = float64(cl.rejects)
	}
	for _, pol := range overloadPolicies {
		vals["thrash "+pol] = runs[pol].thrash
	}
	return Experiment{
		Unit:     "ns (counts and ratios unitless)",
		Headline: float64(main.classes["quick"].p99),
		Values:   vals,
	}, nil
}
