package bench

import (
	"fmt"
	"sort"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// SMP scaling experiment.
//
// The facility's determinism contract keeps simulator code single-threaded,
// and every number in BENCH_report.json is a simulated-time result, so the
// SMP experiment models W cores as W logical workers over ONE shared fbuf
// manager, driven by a single goroutine. Each worker owns a private virtual
// clock; the scheduler always steps the worker whose clock is furthest
// behind (ties break by worker index), swapping the system's cost sink to
// that worker's clock for the duration of its alloc/touch/free cycle, so
// real facility costs land on the core that incurred them. Cross-core
// serialization is modelled explicitly: the shared path free-list lock is a
// resource with a release time, and a worker that needs it first advances
// its clock to that release time (the modelled lock wait) before occupying
// it for the operation's hold time.
//
// Two configurations bracket the claim:
//
//   - "global-lock": every alloc and every free occupies the shared path
//     lock — the facility before per-worker magazines. The serialized
//     section bounds total throughput regardless of worker count.
//   - "magazine": each worker allocates through its private magazine over
//     the path's depot (EnableDepot's default unit and shards). Steady-state
//     cycles hit the stash and touch no shared state at all; only a miss
//     pays a (longer, batched) lock hold.
//
// The schedule, the clocks, and every counter are identical on every run.
// Real goroutines drive the same cycle in the root BenchmarkParallel*
// functions and internal/core's TestParallel* tests; their numbers are
// machine-dependent and stay out of the committed report.

const (
	// smpOpsPerWorker is each logical worker's alloc/touch/free cycle count.
	smpOpsPerWorker = 2000
	// smpTouchCost models the per-cycle application work on the fbuf's
	// page (3 us) — the parallel section of a cycle.
	smpTouchCost = simtime.Duration(3000)
	// smpLockHold models the shared-lock occupancy of one locked alloc or
	// free (1.5 us) — the serialized section of a global-lock cycle.
	smpLockHold = simtime.Duration(1500)
	// smpBatchHold models the occupancy of a magazine miss that reaches
	// shared state: a unit exchange, a batched refill, or a carve (3 us).
	smpBatchHold = simtime.Duration(3000)
)

// smpWorkerCounts is the worker-count sweep for both configurations.
var smpWorkerCounts = []int{1, 2, 4}

// smpRun is one configuration x worker-count measurement.
type smpRun struct {
	opsPerSec float64
	lock      smpResource // the shared path lock
	cont      core.Contention
}

// smpRig is what both sweeps run on: one manager over a 1<<15-frame
// system with 256 chunks of 64 pages, and one cached/volatile path of
// one-page fbufs from src to dst.
type smpRig struct {
	sys      *vm.System
	buildClk *simtime.Clock // setup and teardown charges
	mgr      *core.Manager
	src      *domain.Domain
	path     *core.DataPath
}

func newSMPRig() (*smpRig, error) {
	r := &smpRig{buildClk: &simtime.Clock{}}
	r.sys = vm.NewSystem(machine.DecStation5000(), 1<<15, vm.ClockSink{Clock: r.buildClk})
	reg := domain.NewRegistry(r.sys)
	r.mgr = core.NewManagerGeometry(r.sys, reg, 256, 64)
	r.src = reg.New("src")
	dst := reg.New("dst")
	var err error
	r.path, err = r.mgr.NewPath("smp", core.CachedVolatile(), 1, r.src, dst)
	return r, err
}

// smpWorker is one logical core: a private virtual clock, a magazine (nil
// when every op takes the shared path), the fbufs it holds, and the
// number of steps it has taken.
type smpWorker struct {
	clk   *simtime.Clock
	mag   *core.Magazine
	held  []*core.Fbuf
	steps int
}

// depth is the worker's magazine depth, 0 without a magazine.
func (w *smpWorker) depth() int {
	if w.mag == nil {
		return 0
	}
	return w.mag.Depth()
}

// exchanges is the worker's depot exchange count, 0 without a magazine.
func (w *smpWorker) exchanges() uint64 {
	if w.mag == nil {
		return 0
	}
	return w.mag.ExchangeCount()
}

// alloc allocates one fbuf for w, through its magazine if it has one.
func (r *smpRig) alloc(w *smpWorker) error {
	alloc := r.path.Alloc
	if w.mag != nil {
		alloc = w.mag.Alloc
	}
	f, err := alloc()
	if err != nil {
		return err
	}
	w.held = append(w.held, f)
	return nil
}

// free frees w's most recently allocated fbuf, through its magazine if it
// has one.
func (r *smpRig) free(w *smpWorker) error {
	f := w.held[len(w.held)-1]
	w.held = w.held[:len(w.held)-1]
	if w.mag != nil {
		return w.mag.Free(f, r.src)
	}
	return r.mgr.Free(f, r.src)
}

// run is the min-clock schedule both sweeps share. It repeatedly steps the
// unfinished worker whose clock is furthest behind (ties go to the lower
// index), with the system's cost sink swapped to that worker's clock, so
// facility costs land on the core that incurred them, until every worker
// has taken steps steps. Then the magazines drain on the build clock and
// run returns the makespan: the furthest-ahead worker clock.
func (r *smpRig) run(ws []*smpWorker, steps int, step func(wi int, w *smpWorker) error) (simtime.Time, error) {
	for finished := 0; finished < len(ws); {
		wi := -1
		for i, w := range ws {
			if w.steps < steps && (wi < 0 || w.clk.Now() < ws[wi].clk.Now()) {
				wi = i
			}
		}
		w := ws[wi]
		r.sys.SetSink(vm.ClockSink{Clock: w.clk})
		if err := step(wi, w); err != nil {
			return 0, err
		}
		if w.steps++; w.steps == steps {
			finished++
		}
	}
	r.sys.SetSink(vm.ClockSink{Clock: r.buildClk})
	var makespan simtime.Time
	for _, w := range ws {
		makespan = max(makespan, w.clk.Now())
		if w.mag != nil {
			w.mag.Drain()
		}
	}
	if makespan <= 0 {
		return 0, fmt.Errorf("bench: smp makespan = %d", makespan)
	}
	return makespan, nil
}

// smpResource is a modelled shared resource, a lock or a depot shard: a
// worker that needs it before its release time first advances its clock
// to that time (the modelled wait), then occupies it for the hold.
type smpResource struct {
	freeAt simtime.Time
	wait   simtime.Duration // summed modelled waiting
	ops    uint64           // occupations
}

// occupy makes the worker on clk wait for the resource and then hold it
// for hold; it returns the wait.
func (res *smpResource) occupy(clk *simtime.Clock, hold simtime.Duration) simtime.Duration {
	var wait simtime.Duration
	if now := clk.Now(); now < res.freeAt {
		wait = res.freeAt - now
		clk.AdvanceTo(res.freeAt)
	}
	clk.Advance(hold)
	res.freeAt = clk.Now()
	res.wait += wait
	res.ops++
	return wait
}

// runSMP executes the harness: W logical workers over one cached/volatile
// path, with or without per-worker magazines. A cycle runs as three
// separately scheduled steps (alloc, touch, free) so one worker's touch
// overlaps other workers' lock sections — the overlap that gives the
// global-lock configuration its partial scaling instead of full
// serialization.
func runSMP(workers int, magazines bool) (*smpRun, error) {
	r, err := newSMPRig()
	if err != nil {
		return nil, err
	}
	var depot *core.Depot
	if magazines {
		depot = r.path.EnableDepot(0, 0)
	}
	ws := make([]*smpWorker, workers)
	for i := range ws {
		ws[i] = &smpWorker{clk: &simtime.Clock{}}
		if depot != nil {
			ws[i].mag = depot.NewMagazine()
		}
	}
	run := &smpRun{}
	makespan, err := r.run(ws, 3*smpOpsPerWorker, func(_ int, w *smpWorker) error {
		switch w.steps % 3 {
		case 0: // allocate
			hadStash := w.depth() > 0
			if err := r.alloc(w); err != nil {
				return err
			}
			if w.mag == nil {
				run.lock.occupy(w.clk, smpLockHold)
			} else if !hadStash {
				// The miss exchanged, refilled or carved: a batched hold.
				run.lock.occupy(w.clk, smpBatchHold)
			}
		case 1: // touch
			w.clk.Advance(smpTouchCost)
		case 2: // free
			if err := r.free(w); err != nil {
				return err
			}
			// A magazine free only pushes the stash: a worker holds one
			// fbuf at a time, so its stash never fills.
			if w.mag == nil {
				run.lock.occupy(w.clk, smpLockHold)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	run.opsPerSec = float64(workers*smpOpsPerWorker) / (float64(makespan) / 1e9)
	run.cont = r.mgr.ContentionSnapshot()
	return run, nil
}

// smpConfigs orders the two configurations for tables and reports.
var smpConfigs = []struct {
	name      string
	magazines bool
}{
	{"global-lock", false},
	{"magazine", true},
}

// smpScalingValues runs the full sweep and returns the report values plus
// the rendered table. Headline value: "speedup magazine 4w".
func smpScalingValues() (map[string]float64, *Table, error) {
	vals := make(map[string]float64)
	t := &Table{
		Title:  "SMP scaling: parallel alloc/free over one shared path (simulated cores)",
		Header: []string{"config", "workers", "kops/s", "speedup", "lock waits us", "lock ops", "mag hit%"},
		Note: fmt.Sprintf("deterministic simulated-SMP harness: %d ops/worker, %.1fus touch, %.1fus lock hold, %.1fus batched refill/flush",
			smpOpsPerWorker, smpTouchCost.Microseconds(), smpLockHold.Microseconds(), smpBatchHold.Microseconds()),
	}
	for _, cfg := range smpConfigs {
		var base float64
		for _, w := range smpWorkerCounts {
			r, err := runSMP(w, cfg.magazines)
			if err != nil {
				return nil, nil, err
			}
			if w == smpWorkerCounts[0] {
				base = r.opsPerSec
			}
			speedup := r.opsPerSec / base
			vals[fmt.Sprintf("%s %dw ops/s", cfg.name, w)] = r.opsPerSec
			vals[fmt.Sprintf("speedup %s %dw", cfg.name, w)] = speedup
			hitPct := 0.0
			if h, m := r.cont.MagazineHits, r.cont.MagazineMisses; h+m > 0 {
				hitPct = 100 * float64(h) / float64(h+m)
			}
			t.Rows = append(t.Rows, []string{
				cfg.name,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.0f", r.opsPerSec/1e3),
				fmt.Sprintf("%.2f", speedup),
				fmt.Sprintf("%.1f", r.lock.wait.Microseconds()),
				fmt.Sprintf("%d", r.lock.ops),
				fmt.Sprintf("%.1f", hitPct),
			})
			if w == 4 {
				vals[fmt.Sprintf("%s 4w lock_wait_us", cfg.name)] = r.lock.wait.Microseconds()
				if cfg.magazines {
					vals["magazine 4w magazine_hits"] = float64(r.cont.MagazineHits)
					vals["magazine 4w magazine_misses"] = float64(r.cont.MagazineMisses)
					vals["magazine 4w magazine_refills"] = float64(r.cont.MagazineRefills)
					vals["magazine 4w magazine_flushes"] = float64(r.cont.MagazineFlushes)
				}
			}
		}
	}
	return vals, t, nil
}

// --- Burst sweep: depot vs global lock at 8/16/64 workers ----------------
//
// The cycle workload above holds one buffer at a time, which a private
// magazine absorbs almost entirely; it cannot show what a magazine's
// traffic to shared state costs. The burst workload allocates a batch,
// works on it, then frees the batch — the shape of a NIC receive ring
// refill or a pipeline stage draining its input — so every worker crosses
// its magazine's capacity twice per round and the exchange traffic lands
// on shared state. Two configurations bracket the depot claim:
//
//   - "global-lock": every op under the shared path lock (flat line).
//   - "depot": magazines exchange whole units with the central depot —
//     one constant-time swap under the depot's leaf lock — and the
//     loose-inventory shards behind it spread assembly/spill traffic, so
//     the serialized section per round is a few hundred ns and the sweep
//     stays near-linear through 16 workers.
//
// Like the cycle harness, cross-core serialization is modelled on virtual
// clocks: each shared resource (path lock, depot lock, each depot shard)
// has a release time, and a worker arriving early advances to it. The
// waits recorded against each shard become the per-shard contention
// heatmap published into BENCH_report.json, which the tests compare with
// the checked-in report exactly.

const (
	// smpBurst is the batch size per half-round: 48 allocs, then 48 frees,
	// three magazine units — every round crosses the unit boundary.
	smpBurst = 48
	// smpBurstRounds is the measured rounds per worker.
	smpBurstRounds = 20
	// smpUnitCap is the magazine capacity and depot unit size.
	smpUnitCap = 16
	// smpBurstTouch is the per-buffer application work (1 us) — the
	// parallel section of an alloc op.
	smpBurstTouch = simtime.Duration(1000)
	// smpItemHold is the shared-lock occupancy per item a magazine refill
	// from the path free list moves (600 ns): item-at-a-time transfer is
	// what the depot's whole-unit exchange eliminates.
	smpItemHold = simtime.Duration(600)
	// smpDepotHold is the depot-lock occupancy of one whole-unit exchange
	// (200 ns): a constant-time stack swap.
	smpDepotHold = simtime.Duration(200)
	// smpShardHold is the occupancy of the one loose-inventory shard an
	// exchange touches when the unit stack spills or assembles (400 ns).
	smpShardHold = simtime.Duration(400)
	// smpDepotShards is the sharded free-list fan-out behind the depot.
	smpDepotShards = 8
	// SMPSeed is the pinned seed the JSON report and baseline gate use;
	// -exp smp -seed N perturbs shard placement for the determinism matrix.
	SMPSeed = 1
)

// smpBurstWorkerCounts is the ISSUE-mandated sweep: past the 4-worker knee
// of the cycle harness into the many-core regime.
var smpBurstWorkerCounts = []int{1, 8, 16, 64}

// smpBurstConfigs orders the two burst configurations.
var smpBurstConfigs = []string{"global-lock", "depot"}

// smpBurstRun is one burst configuration x worker-count measurement.
type smpBurstRun struct {
	opsPerSec  float64     // alloc/free pairs per simulated second
	lock       smpResource // the shared path lock
	depot      smpResource // the depot lock: one occupation per exchange
	shards     [smpDepotShards]smpResource
	shardWaits [smpDepotShards][]simtime.Duration // per-shard wait samples
	cont       core.Contention
}

// runSMPBurst executes the burst harness for one configuration. The
// pre-warm phase (on the build clock, unmeasured) carves every buffer the
// sweep will ever use and parks it in the configuration's own reservoir —
// the shared free list, or the depot stack and shards — so the measured
// rounds exercise steady-state reuse, not first-touch carving.
func runSMPBurst(workers int, config string, seed int64) (*smpBurstRun, error) {
	r, err := newSMPRig()
	if err != nil {
		return nil, err
	}
	r.path.SetQuota(-1) // 64 workers x 48 live pages exceed the default quota
	var depot *core.Depot
	if config == "depot" {
		depot = r.path.EnableDepot(smpUnitCap, smpDepotShards)
	}

	// Pre-warm: carve the working set and park it. With a depot, deposit
	// through a scratch magazine so the inventory lands in the depot
	// (stack first, spilling to the shards), not the free list.
	warm := make([]*core.Fbuf, workers*smpBurst)
	for i := range warm {
		if warm[i], err = r.path.Alloc(); err != nil {
			return nil, err
		}
	}
	free := r.mgr.Free
	var scratch *core.Magazine
	if depot != nil {
		scratch = depot.NewMagazine()
		free = scratch.Free
	}
	for _, f := range warm {
		if err := free(f, r.src); err != nil {
			return nil, err
		}
	}
	if scratch != nil {
		scratch.Drain()
	}

	ws := make([]*smpWorker, workers)
	for i := range ws {
		ws[i] = &smpWorker{clk: &simtime.Clock{}, held: make([]*core.Fbuf, 0, smpBurst)}
		if depot != nil {
			ws[i].mag = depot.NewMagazine()
		}
	}

	run := &smpBurstRun{}
	// One whole-unit exchange: a constant hold on the depot lock, then a
	// constant hold on one shard, picked by a seed-perturbed hash so the
	// determinism matrix exercises different placements.
	exchange := func(wi int, w *smpWorker) {
		run.depot.occupy(w.clk, smpDepotHold)
		s := int((w.mag.ExchangeCount() + uint64(wi) + uint64(seed)) % smpDepotShards)
		run.shardWaits[s] = append(run.shardWaits[s], run.shards[s].occupy(w.clk, smpShardHold))
	}
	makespan, err := r.run(ws, smpBurstRounds*2*smpBurst, func(wi int, w *smpWorker) error {
		depth, exch := w.depth(), w.exchanges()
		if w.steps%(2*smpBurst) < smpBurst { // alloc half
			if err := r.alloc(w); err != nil {
				return err
			}
			switch {
			case w.mag == nil:
				run.lock.occupy(w.clk, smpLockHold)
			case w.mag.ExchangeCount() > exch:
				exchange(wi, w)
			case depth == 0 && w.mag.Depth() > 0:
				// Refilled item-at-a-time from the shared free list.
				run.lock.occupy(w.clk, smpItemHold*simtime.Duration(w.mag.Depth()+1))
			case depth == 0:
				run.lock.occupy(w.clk, smpLockHold) // carve, or single-item refill
			}
			w.clk.Advance(smpBurstTouch)
			return nil
		}
		// free half: a full stash rotates locally or exchanges a unit
		if err := r.free(w); err != nil {
			return err
		}
		if w.mag == nil {
			run.lock.occupy(w.clk, smpLockHold)
		} else if w.mag.ExchangeCount() > exch {
			exchange(wi, w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	run.opsPerSec = float64(workers*smpBurstRounds*smpBurst) / (float64(makespan) / 1e9)
	run.cont = r.mgr.ContentionSnapshot()
	return run, nil
}

// shardWaitP99 is the deterministic p99 of one shard's wait samples: the
// samples are a fixed schedule's outputs, so sorting and indexing needs no
// estimator. Returns 0 for an unvisited shard.
func shardWaitP99(samples []simtime.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]simtime.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)*99)/100])
}

// smpBurstValues runs the burst sweep, merging report values and rendering
// the burst table plus the per-shard contention heatmap.
func smpBurstValues(seed int64, vals map[string]float64) ([]*Table, error) {
	t := &Table{
		Title:  "Burst alloc/free: depot vs global lock (simulated cores)",
		Header: []string{"config", "workers", "kpairs/s", "speedup", "lock wait us", "depot wait us", "exchanges"},
		Note: fmt.Sprintf("burst of %d allocs then %d frees per round, %d rounds/worker, unit %d, %d shards, seed %d",
			smpBurst, smpBurst, smpBurstRounds, smpUnitCap, smpDepotShards, seed),
	}
	heat := &Table{
		Title: "Depot shard contention heatmap (p99 modelled wait ns per shard)",
		Header: append([]string{"workers"}, func() []string {
			h := make([]string, smpDepotShards)
			for i := range h {
				h[i] = fmt.Sprintf("s%d", i)
			}
			return h
		}()...),
		Note: "each cell: p99 of the virtual-clock waits workers spent entering that loose-inventory shard during unit assembly/spill",
	}
	for _, cfg := range smpBurstConfigs {
		var base float64
		for _, w := range smpBurstWorkerCounts {
			r, err := runSMPBurst(w, cfg, seed)
			if err != nil {
				return nil, err
			}
			if w == smpBurstWorkerCounts[0] {
				base = r.opsPerSec
			}
			speedup := r.opsPerSec / base
			vals[fmt.Sprintf("burst %s %dw pairs/s", cfg, w)] = r.opsPerSec
			vals[fmt.Sprintf("speedup burst %s %dw", cfg, w)] = speedup
			t.Rows = append(t.Rows, []string{
				cfg,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.0f", r.opsPerSec/1e3),
				fmt.Sprintf("%.2f", speedup),
				fmt.Sprintf("%.1f", r.lock.wait.Microseconds()),
				fmt.Sprintf("%.1f", r.depot.wait.Microseconds()),
				fmt.Sprintf("%d", r.depot.ops),
			})
			if cfg == "depot" {
				vals[fmt.Sprintf("burst depot %dw exchanges", w)] = float64(r.cont.DepotExchanges)
				vals[fmt.Sprintf("burst depot %dw assemblies", w)] = float64(r.cont.DepotAssemblies)
				vals[fmt.Sprintf("burst depot %dw spills", w)] = float64(r.cont.DepotSpills)
				vals[fmt.Sprintf("burst depot %dw depot_wait_us", w)] = r.depot.wait.Microseconds()
				row := []string{fmt.Sprintf("%d", w)}
				for s := 0; s < smpDepotShards; s++ {
					p99 := shardWaitP99(r.shardWaits[s])
					vals[fmt.Sprintf("burst depot %dw shard %d wait p99_ns", w, s)] = p99
					vals[fmt.Sprintf("burst depot %dw shard %d visits", w, s)] = float64(r.shards[s].ops)
					row = append(row, fmt.Sprintf("%.0f", p99))
				}
				heat.Rows = append(heat.Rows, row)
			}
		}
	}
	return []*Table{t, heat}, nil
}

// SMPScaling renders the smp_scaling experiment — the cycle sweep, the
// burst sweep, and the shard heatmap — as text tables (fbufbench -exp smp).
func SMPScaling(seed int64) ([]*Table, error) {
	_, tables, err := smpAllValues(seed)
	return tables, err
}

// smpAllValues merges the cycle sweep and the burst sweep into one value
// map — the smp_scaling experiment of BENCH_report.json.
func smpAllValues(seed int64) (map[string]float64, []*Table, error) {
	vals, cycle, err := smpScalingValues()
	if err != nil {
		return nil, nil, err
	}
	burst, err := smpBurstValues(seed, vals)
	if err != nil {
		return nil, nil, err
	}
	return vals, append([]*Table{cycle}, burst...), nil
}
