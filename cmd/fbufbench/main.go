// Command fbufbench regenerates the tables and figures of the fbufs paper
// (Druschel & Peterson, SOSP 1993) on the simulated DecStation testbed.
//
// Usage:
//
//	fbufbench [-exp table1|fig3|fig4|fig5|fig6|cpuload|smp|audit|ablations|chaos|overload|rings|all]
//	          [-seed N]
//	          [-json] [-json-out BENCH_report.json] [-audit-trace out.json]
//	          [-trace out.json]
//
// Output is plain text: one aligned table per paper table, one
// column-per-series table per paper figure. EXPERIMENTS.md records the
// paper-vs-measured comparison for every entry. -trace exports the
// observability layer's Chrome trace-event JSON for the benchmark run;
// fbufsim -metrics exports a host's counters and gauges.
//
// -json additionally writes the machine-readable BENCH_report.json: the
// headline simulated metrics of every experiment (paper figures, smp,
// audit, overload, rings), whatever -exp selects. The JSON experiments
// always run under their pinned seeds, so -seed never changes the report.
// Every value is simulated time or a count, so the file is exact: the
// tests compare a fresh report with the checked-in one byte for byte,
// and a change that means to move a modelled number regenerates it.
//
// -exp audit profiles the fig5 cached path per transfer stage, and
// -audit-trace writes the audit flight recorder's Perfetto dump.
// -exp overload runs the production-shaped multi-tenant saturation
// scenario (per-class latency, path-cache eviction sweep, admission
// rejections, copy-fallback duty cycle); -seed N narrows it to one seed.
// -exp rings sweeps message sizes over the legacy IPC and ring data
// planes; -seed N picks the synthetic doorbell schedule.
// -exp smp prints the deterministic simulated-SMP scaling tables — the
// cycle sweep, the 8/16/64-worker burst sweep (global lock vs depot),
// and the per-shard depot contention heatmap; -seed N perturbs
// the burst harness's shard placement for the determinism matrix.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fbufs/internal/bench"
	"fbufs/internal/obs"
)

// validExperiments lists the -exp spellings ("chaos" runs only when named
// explicitly; "all" covers the rest).
var validExperiments = []string{
	"table1", "fig3", "fig4", "fig5", "fig6", "cpuload", "smp", "audit", "ablations", "chaos", "overload", "rings", "all",
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig3, fig4, fig5, fig6, cpuload, smp, audit, ablations, chaos, overload, rings, all (chaos, overload, and rings not in all)")
	seed := flag.Int64("seed", 0, "run -exp overload, rings, or smp with this single seed (0 = overload matrix / pinned rings and smp seeds; the JSON report always uses the pinned seeds)")
	jsonOut := flag.Bool("json", false, "write the machine-readable benchmark report (every experiment, whatever -exp says)")
	jsonPath := flag.String("json-out", "BENCH_report.json", "path for the -json report")
	auditTrace := flag.String("audit-trace", "", "write the audit flight recorder's Perfetto dump to this file")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	flag.Parse()

	var o *obs.Observer
	if *tracePath != "" {
		o = obs.New(1 << 18)
		bench.SetObserver(o)
	}
	if err := run(os.Stdout, *exp, *seed); err != nil {
		fatal(err)
	}

	if *jsonOut {
		rep, err := bench.BuildReport()
		if err != nil {
			fatal(err)
		}
		if err := createFile(*jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %s\n", *jsonPath, rep.Summary())
	}
	if *auditTrace != "" {
		res, err := bench.Audit()
		if err != nil {
			fatal(err)
		}
		if err := createFile(*auditTrace, res.Recorder.WriteDump); err != nil {
			fatal(err)
		}
	}
	if o != nil {
		if err := createFile(*tracePath, o.Tracer.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}
}

// fatal reports err and exits nonzero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fbufbench:", err)
	os.Exit(1)
}

// createFile writes path with write, closing the file on every path.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type writerTo interface {
	WriteTo(io.Writer) (int64, error)
}

func run(w io.Writer, exp string, seed int64) error {
	show := func(r writerTo, err error) error {
		if err != nil {
			return err
		}
		if _, err := r.WriteTo(w); err != nil {
			return err
		}
		_, err = fmt.Fprintln(w)
		return err
	}
	all := exp == "all"
	ran := false
	if all || exp == "table1" {
		ran = true
		if err := show(bench.Table1()); err != nil {
			return err
		}
	}
	if all || exp == "fig3" {
		ran = true
		if err := show(bench.Figure3()); err != nil {
			return err
		}
	}
	if all || exp == "fig4" {
		ran = true
		if err := show(bench.Figure4()); err != nil {
			return err
		}
	}
	if all || exp == "fig5" {
		ran = true
		if err := show(bench.Figure5()); err != nil {
			return err
		}
	}
	if all || exp == "fig6" {
		ran = true
		if err := show(bench.Figure6()); err != nil {
			return err
		}
	}
	if all || exp == "cpuload" {
		ran = true
		if err := show(bench.CPULoad()); err != nil {
			return err
		}
	}
	if all || exp == "smp" {
		ran = true
		s := seed
		if s == 0 {
			s = bench.SMPSeed
		}
		tables, err := bench.SMPScaling(s)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := show(t, nil); err != nil {
				return err
			}
		}
	}
	if all || exp == "audit" {
		ran = true
		if err := show(bench.Audit()); err != nil {
			return err
		}
	}
	if exp == "chaos" { // not part of "all": paper artifacts stay fault-free
		ran = true
		if err := show(bench.Chaos()); err != nil {
			return err
		}
	}
	if exp == "overload" { // not part of "all", like chaos: a robustness scenario
		ran = true
		var seeds []int64
		if seed != 0 {
			seeds = []int64{seed}
		}
		if err := show(bench.Overload(seeds...)); err != nil {
			return err
		}
	}
	if exp == "rings" { // not part of "all": the paper artifacts stay on the legacy plane
		ran = true
		if err := show(bench.Rings(seed)); err != nil {
			return err
		}
	}
	if all || exp == "ablations" {
		ran = true
		tables, err := bench.Ablations()
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := show(t, nil); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(validExperiments, ", "))
	}
	return nil
}
