package conformance

// Interleaving explorer: runs multi-worker command streams against the
// real stack under systematically varied schedules, checking each
// interleaving against the reference model executed in the same order.
//
// The fbuf facility's functional behavior must form a sequential-
// consistency envelope: whatever order the scheduler picks, the outcome
// of the resulting operation sequence must match the sequential model
// run over that same flattened order. Each worker carries its own
// virtual clock (the PR 4 simulated-SMP pattern from bench/parallel.go),
// and the system's cost sink is swapped to the acting worker's clock
// before every step — so MMU costs accrue per worker exactly as in the
// smp_scaling experiment, and any behavior that leaks simulated-time
// state into functional results shows up as a divergence.

import (
	"fmt"
	"math/rand"

	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// ExploreConfig parameterizes a schedule exploration.
type ExploreConfig struct {
	Workers    int // concurrent command streams (default 2)
	PerWorker  int // commands per stream (default 6)
	Schedules  int // random schedules per seed; 0 = exhaustive only
	Exhaustive bool
	Cfg        Config // hooks + audit cadence for the differential runner
}

// ExploreResult reports a schedule-dependent divergence. Flat is the
// flattened command prefix (in executed order) that reproduces it;
// Schedule is the worker index picked at each step.
type ExploreResult struct {
	Seed     int64
	Schedule []int
	Flat     []Cmd
	Shrunk   []Cmd
	Div      *Divergence
	cfg      Config
}

func (er *ExploreResult) String() string {
	if er == nil || er.Div == nil {
		return "conformance explore: no divergence"
	}
	s := fmt.Sprintf("conformance explore: seed %d schedule %v diverged: %s\n",
		er.Seed, er.Schedule, er.Div.Error())
	_, trace := RunTrace(er.Shrunk, er.Cfg())
	for i, d := range trace {
		s += fmt.Sprintf("  %2d: %s\n", i, d)
	}
	return s
}

// Cfg returns the config the divergence was found under.
func (er *ExploreResult) Cfg() Config { return er.cfg }

// perOpCost is the simulated cost charged to a worker's clock per
// command, on top of whatever MMU costs the operation itself accrues.
const perOpCost = simtime.Duration(100)

// runSchedule executes the given interleaving of per-worker command
// streams on a fresh runner, swapping the system clock sink to the
// acting worker before each step. Returns the divergence (if any) and
// the flattened prefix executed up to and including the failing step.
func runSchedule(streams [][]Cmd, schedule []int, cfg Config) (*Divergence, []Cmd, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, nil, err
	}
	clocks := make([]*simtime.Clock, len(streams))
	for i := range clocks {
		clocks[i] = &simtime.Clock{}
	}
	pos := make([]int, len(streams))
	flat := make([]Cmd, 0, len(schedule))
	for step, w := range schedule {
		if w < 0 || w >= len(streams) || pos[w] >= len(streams[w]) {
			continue // exhausted stream: schedule slot is a no-op
		}
		c := streams[w][pos[w]]
		pos[w]++
		flat = append(flat, c)
		r.sys.SetSink(vm.ClockSink{Clock: clocks[w]})
		clocks[w].Advance(perOpCost)
		r.step = step
		desc, div := r.exec(c)
		if div != nil {
			return div, flat, nil
		}
		if (len(flat))%r.cfg.AuditEvery == 0 {
			if div := r.audit(c, desc+" [audit]"); div != nil {
				return div, flat, nil
			}
		}
	}
	div := r.audit(Cmd{}, "final audit")
	return div, flat, nil
}

// randomSchedule picks, at each step, a uniformly random worker that
// still has commands left.
func randomSchedule(rnd *rand.Rand, workers, perWorker int) []int {
	remaining := make([]int, workers)
	for i := range remaining {
		remaining[i] = perWorker
	}
	total := workers * perWorker
	sched := make([]int, 0, total)
	for len(sched) < total {
		live := make([]int, 0, workers)
		for w, n := range remaining {
			if n > 0 {
				live = append(live, w)
			}
		}
		w := live[rnd.Intn(len(live))]
		remaining[w]--
		sched = append(sched, w)
	}
	return sched
}

// roundRobinSchedule runs the workers in turn, 0, 1, …, workers-1, once per
// command. It is the schedule the smp_scaling harness's min-clock rule
// (step the worker furthest behind, ties to the lower index) produces for
// symmetric workers under the fixed perOpCost, so the envelope covers the
// schedule real experiments use.
func roundRobinSchedule(workers, perWorker int) []int {
	sched := make([]int, 0, workers*perWorker)
	for i := 0; i < perWorker; i++ {
		for w := 0; w < workers; w++ {
			sched = append(sched, w)
		}
	}
	return sched
}

// enumSchedules generates every distinct interleaving of `workers`
// streams with `perWorker` commands each — the multinomial
// (workers*perWorker)! / (perWorker!)^workers. Callers must keep the
// bound small (2 workers x 3 commands = 20 interleavings).
func enumSchedules(workers, perWorker int) [][]int {
	var out [][]int
	remaining := make([]int, workers)
	for i := range remaining {
		remaining[i] = perWorker
	}
	cur := make([]int, 0, workers*perWorker)
	var rec func()
	rec = func() {
		done := true
		for w := 0; w < workers; w++ {
			if remaining[w] > 0 {
				done = false
				remaining[w]--
				cur = append(cur, w)
				rec()
				cur = cur[:len(cur)-1]
				remaining[w]++
			}
		}
		if done {
			out = append(out, append([]int(nil), cur...))
		}
	}
	rec()
	return out
}

// Explore runs the interleaving exploration for one seed: per-worker
// command streams derived from the seed, executed under the round-robin
// schedule, ec.Schedules random schedules, and (when ec.Exhaustive) the
// full enumeration. The first schedule-order divergence is shrunk —
// the flattened prefix is itself a sequential command list, so the
// standard delta-debugger applies — and returned; nil means every
// explored interleaving matched the model.
func Explore(seed int64, ec ExploreConfig) (*ExploreResult, error) {
	if ec.Workers <= 0 {
		ec.Workers = 2
	}
	if ec.PerWorker <= 0 {
		ec.PerWorker = 6
	}
	streams := make([][]Cmd, ec.Workers)
	for w := range streams {
		streams[w] = Generate(seed+int64(w)*7919, ec.PerWorker)
	}

	schedules := [][]int{roundRobinSchedule(ec.Workers, ec.PerWorker)}
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < ec.Schedules; i++ {
		schedules = append(schedules, randomSchedule(rnd, ec.Workers, ec.PerWorker))
	}
	if ec.Exhaustive {
		schedules = append(schedules, enumSchedules(ec.Workers, ec.PerWorker)...)
	}

	for _, sched := range schedules {
		div, flat, err := runSchedule(streams, sched, ec.Cfg)
		if err != nil {
			return nil, err
		}
		if div != nil {
			return &ExploreResult{
				Seed:     seed,
				Schedule: append([]int(nil), sched...),
				Flat:     flat,
				Shrunk:   Shrink(flat, ec.Cfg),
				Div:      div,
				cfg:      ec.Cfg,
			}, nil
		}
	}
	return nil, nil
}
