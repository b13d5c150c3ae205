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
//   - "magazine": each worker allocates through its private magazine.
//     Steady-state cycles hit the stash and touch no shared state at all;
//     only refills and flushes pay a (longer, batched) lock hold.
//
// The schedule, the clocks, and every counter are identical on every run.
// Wall-clock goroutine benchmarks exist too (fbufbench -parallel N and the
// root Benchmark*Parallel functions) but their numbers are machine-dependent
// and deliberately stay out of the committed report.

const (
	// smpOpsPerWorker is each logical worker's alloc/touch/free cycle count.
	smpOpsPerWorker = 2000
	// smpTouchCost models the per-cycle application work on the fbuf's
	// page (3 us) — the parallel section of a cycle.
	smpTouchCost = simtime.Duration(3000)
	// smpLockHold models the shared-lock occupancy of one locked alloc or
	// free (1.5 us) — the serialized section of a global-lock cycle.
	smpLockHold = simtime.Duration(1500)
	// smpBatchHold models the occupancy of a magazine refill or flush,
	// which moves up to half a stash under one acquisition (3 us).
	smpBatchHold = simtime.Duration(3000)
)

// smpWorkerCounts is the worker-count sweep for both configurations.
var smpWorkerCounts = []int{1, 2, 4}

// smpRun is one configuration x worker-count measurement.
type smpRun struct {
	opsPerSec  float64
	lockWaitUS float64 // modelled time workers spent waiting on the shared lock
	lockOps    uint64  // modelled shared-lock occupations
	cont       core.Contention
}

// runSMP executes the harness: W logical workers over one cached/volatile
// path, with or without per-worker magazines.
func runSMP(workers int, magazines bool) (*smpRun, error) {
	buildClk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 1<<15, vm.ClockSink{Clock: buildClk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManagerGeometry(sys, reg, 256, 64)
	src := reg.New("src")
	dst := reg.New("dst")
	path, err := mgr.NewPath("smp", core.CachedVolatile(), 1, src, dst)
	if err != nil {
		return nil, err
	}

	// A cycle runs as three separately scheduled phases (alloc, touch,
	// free) so one worker's touch overlaps other workers' lock sections —
	// the overlap that gives the global-lock configuration its partial
	// scaling instead of full serialization.
	type worker struct {
		clk   *simtime.Clock
		mag   *core.Magazine
		f     *core.Fbuf
		phase int
		ops   int
	}
	ws := make([]*worker, workers)
	for i := range ws {
		w := &worker{clk: &simtime.Clock{}}
		if magazines {
			w.mag = path.NewMagazine(0)
		}
		ws[i] = w
	}

	var (
		lockFreeAt simtime.Time     // when the modelled shared lock frees up
		lockWait   simtime.Duration // summed modelled waiting
		lockOps    uint64
	)
	serialize := func(w *worker, hold simtime.Duration) {
		if now := w.clk.Now(); now < lockFreeAt {
			lockWait += lockFreeAt - now
			w.clk.AdvanceTo(lockFreeAt)
		}
		w.clk.Advance(hold)
		lockFreeAt = w.clk.Now()
		lockOps++
	}

	total := workers * smpOpsPerWorker
	for finished := 0; finished < workers; {
		// Step the unfinished worker furthest behind in virtual time.
		var w *worker
		for _, cand := range ws {
			if cand.ops >= smpOpsPerWorker {
				continue
			}
			if w == nil || cand.clk.Now() < w.clk.Now() {
				w = cand
			}
		}
		sys.SetSink(vm.ClockSink{Clock: w.clk})
		switch w.phase {
		case 0: // allocate
			if magazines {
				hadStash := w.mag.Depth() > 0
				f, err := w.mag.Alloc()
				if err != nil {
					return nil, err
				}
				w.f = f
				if !hadStash {
					// The miss refilled (or carved) under the shared lock.
					serialize(w, smpBatchHold)
				}
			} else {
				f, err := path.Alloc()
				if err != nil {
					return nil, err
				}
				w.f = f
				serialize(w, smpLockHold)
			}
			w.phase = 1
		case 1: // touch
			w.clk.Advance(smpTouchCost)
			w.phase = 2
		case 2: // free
			if magazines {
				depth := w.mag.Depth()
				if err := w.mag.Free(w.f, src); err != nil {
					return nil, err
				}
				if w.mag.Depth() <= depth {
					// The push overflowed the stash: half flushed under the lock.
					serialize(w, smpBatchHold)
				}
			} else {
				if err := mgr.Free(w.f, src); err != nil {
					return nil, err
				}
				serialize(w, smpLockHold)
			}
			w.f = nil
			w.phase = 0
			w.ops++
			if w.ops >= smpOpsPerWorker {
				finished++
			}
		}
	}

	// Teardown charges go back to the build clock; the measurement is the
	// makespan — the furthest-ahead worker clock when the last op retires.
	sys.SetSink(vm.ClockSink{Clock: buildClk})
	var makespan simtime.Time
	for _, w := range ws {
		if w.clk.Now() > makespan {
			makespan = w.clk.Now()
		}
		if w.mag != nil {
			w.mag.Drain()
		}
	}
	if makespan <= 0 {
		return nil, fmt.Errorf("bench: smp run makespan = %d", makespan)
	}
	return &smpRun{
		opsPerSec:  float64(total) / (float64(makespan) / 1e9),
		lockWaitUS: lockWait.Microseconds(),
		lockOps:    lockOps,
		cont:       mgr.ContentionSnapshot(),
	}, nil
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
				fmt.Sprintf("%.1f", r.lockWaitUS),
				fmt.Sprintf("%d", r.lockOps),
				fmt.Sprintf("%.1f", hitPct),
			})
			if w == 4 {
				vals[fmt.Sprintf("%s 4w lock_wait_us", cfg.name)] = r.lockWaitUS
				vals[fmt.Sprintf("%s 4w lock_acquires", cfg.name)] = float64(r.cont.LockAcquires)
				vals[fmt.Sprintf("%s 4w lock_contended", cfg.name)] = float64(r.cont.LockContended)
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

// --- Burst sweep: depot vs magazine-only at 8/16/64 workers (PR 10) ------
//
// The cycle workload above holds one buffer at a time, which a private
// magazine absorbs almost entirely; it cannot show where magazine-only
// allocation stops scaling. The burst workload allocates a batch, works on
// it, then frees the batch — the shape of a NIC receive ring refill or a
// pipeline stage draining its input — so every worker crosses its
// magazine's capacity twice per round and the refill/flush traffic lands
// on shared state. Three configurations bracket the depot claim:
//
//   - "global-lock": every op under the shared path lock (flat line).
//   - "magazine": per-worker magazines over the shared free list. Each
//     refill/flush moves items one at a time under the path lock, so the
//     serialized section grows with the burst and caps speedup near 2-3x
//     regardless of worker count.
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
// heatmap published into BENCH_report.json, whose p99s Compare gates
// (10%) against the checked-in report.

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
	// smpItemHold is the shared-lock occupancy per item a magazine
	// refill/flush moves (600 ns): item-at-a-time transfer is what the
	// depot's whole-unit exchange eliminates.
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

// smpBurstConfigs orders the three burst configurations.
var smpBurstConfigs = []string{"global-lock", "magazine", "depot"}

// smpBurstRun is one burst configuration x worker-count measurement.
type smpBurstRun struct {
	opsPerSec   float64              // alloc/free pairs per simulated second
	lockWaitUS  float64              // modelled wait on the shared path lock
	depotWaitUS float64              // modelled wait on the depot lock
	shardWaits  [][]simtime.Duration // per-shard wait samples (depot only)
	shardVisits []uint64
	exchanges   uint64 // whole-unit depot exchanges across all workers
	cont        core.Contention
	shardStats  []core.DepotShardStat
}

// runSMPBurst executes the burst harness for one configuration. The
// pre-warm phase (on the build clock, unmeasured) carves every buffer the
// sweep will ever use and parks it in the configuration's own reservoir —
// the shared free list, or the depot stack and shards — so the measured
// rounds exercise steady-state reuse, not first-touch carving.
func runSMPBurst(workers int, config string, seed int64) (*smpBurstRun, error) {
	buildClk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 1<<15, vm.ClockSink{Clock: buildClk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManagerGeometry(sys, reg, 256, 64)
	src := reg.New("src")
	dst := reg.New("dst")
	path, err := mgr.NewPath("smp-burst", core.CachedVolatile(), 1, src, dst)
	if err != nil {
		return nil, err
	}
	path.SetQuota(-1) // 64 workers x 48 live pages exceed the default quota
	var depot *core.Depot
	if config == "depot" {
		depot = path.EnableDepot(smpUnitCap, smpDepotShards)
	}

	// Pre-warm: carve the working set and park it.
	warm := make([]*core.Fbuf, 0, workers*smpBurst)
	for i := 0; i < workers*smpBurst; i++ {
		f, err := path.Alloc()
		if err != nil {
			return nil, err
		}
		warm = append(warm, f)
	}
	if depot != nil {
		// Deposit through a scratch magazine so the inventory lands in the
		// depot (stack first, spilling to the shards), not the free list.
		scratch := path.NewMagazine(smpUnitCap)
		for _, f := range warm {
			if err := scratch.Free(f, src); err != nil {
				return nil, err
			}
		}
		scratch.Drain()
	} else {
		for _, f := range warm {
			if err := mgr.Free(f, src); err != nil {
				return nil, err
			}
		}
	}

	type worker struct {
		clk  *simtime.Clock
		mag  *core.Magazine
		held []*core.Fbuf
		idx  int // op index within the round: [0,smpBurst) alloc, then frees
		rnd  int
	}
	ws := make([]*worker, workers)
	for i := range ws {
		w := &worker{clk: &simtime.Clock{}, held: make([]*core.Fbuf, 0, smpBurst)}
		if config != "global-lock" {
			w.mag = path.NewMagazine(smpUnitCap)
		}
		ws[i] = w
	}

	r := &smpBurstRun{
		shardWaits:  make([][]simtime.Duration, smpDepotShards),
		shardVisits: make([]uint64, smpDepotShards),
	}
	var (
		lockFreeAt  simtime.Time
		depotFreeAt simtime.Time
		shardFreeAt [smpDepotShards]simtime.Time
		lockWait    simtime.Duration
		depotWait   simtime.Duration
	)
	serializeLock := func(w *worker, hold simtime.Duration) {
		if now := w.clk.Now(); now < lockFreeAt {
			lockWait += lockFreeAt - now
			w.clk.AdvanceTo(lockFreeAt)
		}
		w.clk.Advance(hold)
		lockFreeAt = w.clk.Now()
	}
	// One whole-unit exchange: a constant hold on the depot lock, then a
	// constant hold on one shard, picked by a seed-perturbed hash so the
	// determinism matrix exercises different placements.
	serializeExchange := func(w *worker, wi int, n uint64) {
		for ; n > 0; n-- {
			if now := w.clk.Now(); now < depotFreeAt {
				depotWait += depotFreeAt - now
				w.clk.AdvanceTo(depotFreeAt)
			}
			w.clk.Advance(smpDepotHold)
			depotFreeAt = w.clk.Now()
			s := int((w.mag.ExchangeCount() + uint64(wi) + uint64(seed)) % smpDepotShards)
			wait := simtime.Duration(0)
			if now := w.clk.Now(); now < shardFreeAt[s] {
				wait = shardFreeAt[s] - now
				w.clk.AdvanceTo(shardFreeAt[s])
			}
			w.clk.Advance(smpShardHold)
			shardFreeAt[s] = w.clk.Now()
			r.shardWaits[s] = append(r.shardWaits[s], wait)
			r.shardVisits[s]++
			r.exchanges++
		}
	}

	for finished := 0; finished < workers; {
		var w *worker
		wi := -1
		for i, cand := range ws {
			if cand.rnd >= smpBurstRounds {
				continue
			}
			if w == nil || cand.clk.Now() < w.clk.Now() {
				w, wi = cand, i
			}
		}
		sys.SetSink(vm.ClockSink{Clock: w.clk})
		if w.idx < smpBurst { // alloc half
			if w.mag == nil {
				f, err := path.Alloc()
				if err != nil {
					return nil, err
				}
				w.held = append(w.held, f)
				serializeLock(w, smpLockHold)
			} else {
				depthBefore, exchBefore := w.mag.Depth(), w.mag.ExchangeCount()
				f, err := w.mag.Alloc()
				if err != nil {
					return nil, err
				}
				w.held = append(w.held, f)
				if n := w.mag.ExchangeCount() - exchBefore; n > 0 {
					serializeExchange(w, wi, n)
				} else if depthBefore == 0 {
					if moved := w.mag.Depth() + 1; moved > 1 {
						serializeLock(w, smpItemHold*simtime.Duration(moved))
					} else {
						serializeLock(w, smpLockHold) // carve, or single-item refill
					}
				}
			}
			w.clk.Advance(smpBurstTouch)
		} else { // free half
			f := w.held[len(w.held)-1]
			w.held = w.held[:len(w.held)-1]
			if w.mag == nil {
				if err := mgr.Free(f, src); err != nil {
					return nil, err
				}
				serializeLock(w, smpLockHold)
			} else {
				depthBefore, exchBefore := w.mag.Depth(), w.mag.ExchangeCount()
				if err := w.mag.Free(f, src); err != nil {
					return nil, err
				}
				if n := w.mag.ExchangeCount() - exchBefore; n > 0 {
					serializeExchange(w, wi, n)
				} else if after := w.mag.Depth(); after < depthBefore+1 {
					serializeLock(w, smpItemHold*simtime.Duration(depthBefore+1-after))
				}
			}
		}
		w.idx++
		if w.idx >= 2*smpBurst {
			w.idx = 0
			w.rnd++
			if w.rnd >= smpBurstRounds {
				finished++
			}
		}
	}

	sys.SetSink(vm.ClockSink{Clock: buildClk})
	var makespan simtime.Time
	for _, w := range ws {
		if w.clk.Now() > makespan {
			makespan = w.clk.Now()
		}
		if w.mag != nil {
			w.mag.Drain()
		}
	}
	if makespan <= 0 {
		return nil, fmt.Errorf("bench: smp burst makespan = %d", makespan)
	}
	pairs := workers * smpBurstRounds * smpBurst
	r.opsPerSec = float64(pairs) / (float64(makespan) / 1e9)
	r.lockWaitUS = lockWait.Microseconds()
	r.depotWaitUS = depotWait.Microseconds()
	r.cont = mgr.ContentionSnapshot()
	if depot != nil {
		r.shardStats = depot.ShardStats()
	}
	return r, nil
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
		Title:  "Burst alloc/free: depot vs magazine-only vs global lock (simulated cores)",
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
				fmt.Sprintf("%.1f", r.lockWaitUS),
				fmt.Sprintf("%.1f", r.depotWaitUS),
				fmt.Sprintf("%d", r.exchanges),
			})
			if cfg == "depot" {
				vals[fmt.Sprintf("burst depot %dw exchanges", w)] = float64(r.cont.DepotExchanges)
				vals[fmt.Sprintf("burst depot %dw assemblies", w)] = float64(r.cont.DepotAssemblies)
				vals[fmt.Sprintf("burst depot %dw spills", w)] = float64(r.cont.DepotSpills)
				vals[fmt.Sprintf("burst depot %dw depot_wait_us", w)] = r.depotWaitUS
				row := []string{fmt.Sprintf("%d", w)}
				for s := 0; s < smpDepotShards; s++ {
					p99 := shardWaitP99(r.shardWaits[s])
					vals[fmt.Sprintf("burst depot %dw shard %d wait p99_ns", w, s)] = p99
					vals[fmt.Sprintf("burst depot %dw shard %d visits", w, s)] = float64(r.shardVisits[s])
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
