// Command perfbench is the repository's performance benchmark: three
// closed-loop workloads, each driven by one goroutine on one processor
// (GOMAXPROCS 1), that time the fbuf facility from outside the program and
// check its outputs.
//
//	bash perfbench/run.sh --workload bulk|small|pipeline --seed N --seconds S --trace 0|1
//
// run.sh builds this package from the checkout and runs it from the
// checkout root. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it give
// the host stamp (Go version, GOOS/GOARCH, GOMAXPROCS, CPU count and model),
// every metric with its unit and sample count, and any failed check.
//
// # Workloads
//
//   - bulk: Figure 5's headline point through netsim. Two hosts, user-user
//     placement, cached/volatile fbufs, 16 KB + UDP-header PDUs, ~1 MB
//     messages, window 8, legacy IPC. Byte movement dominates: osiris
//     gathers every PDU with two copies, frames take DMA writes and IP
//     fragments and re-joins 64 pieces per message through aggregate, while
//     per-message control work is spread over those pieces. An osiris or
//     reassembly change shows here; a control-path change should not.
//   - small: ~64 B messages through netsim with the user-netserver-user
//     placement (two crossings per host), the same fbufs, PDU size and
//     window, and the ring data plane on. Fixed per-message cost dominates:
//     aggregate header push/pop and Open at every crossing, core
//     alloc/transfer/free, ring submit/drain, the proxies and event
//     scheduling. It runs the ring plane where bulk runs legacy IPC, so a
//     gain on one crossing plane that costs the other shows.
//   - pipeline: one host with producer -> filter -> consumer domains (the
//     examples/imagepipeline shape) carrying ~64 KB cached/volatile
//     messages, driven one public call at a time: NewData and Push,
//     Transfer and Router.Call (the handler Opens the DAG), Free, the
//     filter's Pop, Split into ~4 KB fragments and Join, Transfer and Call
//     to the consumer, Free, the consumer's Secure, Read (checked byte for
//     byte) and Free, and DeliverNotices. No netsim, osiris or protocol code
//     runs, so every host microsecond sits inside a call the benchmark
//     times: a netsim or osiris change should not move it, an aggregate or
//     core change shows at full strength, and Secure and the filter's edits
//     use core and vm in ways the netsim workloads never do.
//
// The seed draws only the program's inputs: the message size within a
// narrow band (bulk 1 MB - k*256 B for k < 16, small 63 to 65 B, pipeline
// 64 KB - k*64 B for k < 8; the default seed, 1, gives exactly 1 MB, 64 B
// and 64 KB) and pipeline's payload bytes and fragment boundaries. The bands
// are narrow because modelled throughput and allocation track message size:
// a wider band would make the spread across seeds exceed the metrics'
// bounds.
//
// # End-to-end metrics (untraced run)
//
// setup_s is the median host time of 101 fresh rig builds (netsim.NewE2E,
// or fbufs.New plus domains, paths, contexts and ports).
// msgs_per_s, host_us_p50/p99 and alloc_KB/allocs_per_msg cover the
// steady-state window only: it opens after a warm-up that fills free lists
// and lazily allocated frames, and closes at the first delivery after the
// time budget that completes a whole number of sliding windows. In bulk and
// small the host time per message is the gap between successive
// deliveries, stamped by a wrapper around the public B.Test.OnDeliver hook;
// in pipeline it is one iteration. The window is cut into intervals of
// about 200 ms, each a whole number of sliding windows, and msgs_per_s and
// host_us_p50/p99 come from the slow pool: the intervals with the most
// host time per message that together hold at least 10% of the window's
// messages and at least 2000 of them. On a shared machine other tenants
// slow the program by up to 2x, for a fraction of a second or for minutes,
// so how much of a run is slowed varies from run to run: over two sets of
// 6 to 8 runs per workload the whole-window figures spread by up to 51%
// (quartile distance over median) and those of the fastest intervals by
// up to 34%, while every run spends some of its time slowed and the slow
// pool's figures spread by at most 17%. A program that does less work per
// message is faster in the slow pool too. Each interval spans many garbage
// collections, so the choice of intervals does not leave collection out.
// The whole-window rate is printed beside it. alloc_KB_per_msg and
// allocs_per_msg cover the whole window. heap_MB is the live Go heap after
// the run and a forced GC. sim_Mbps is modelled
// throughput on the simulated clock over a fixed window of messages, so it
// repeats exactly for one seed. intact_ratio is messages delivered intact
// and passing every output check over messages attempted: 1 - fail_ratio,
// which is printed too but is not a metric because it reads 0; the JSON
// fields attempted and failed carry the counts.
//
// Output checks run in every run: bulk and small first send a short
// verified pass (Config.Verify) that must deliver every message with no
// verify failures; after every netsim run both hosts are shut down, notices
// are delivered between every live domain pair and Manager.CheckConverged
// must pass. Pipeline compares every byte read with the seeded payload and
// ends with each context's Close, notice delivery and CheckConverged. A
// failed check makes the run incorrect and no performance number is
// printed.
//
// # Per-layer metrics (traced run, --trace 1) and what each should move
//
// Each row: the metric, where it is read, the end-to-end metric it should
// move, and the workload where it does most work.
//
//   - aggregate.build_us, aggregate.build_KB: span and heap delta around
//     NewData and Push; host_us_p50 and alloc_KB_per_msg; pipeline.
//   - aggregate.edit_us, aggregate.edit_KB: around Pop, Split and Join;
//     msgs_per_s; pipeline.
//   - aggregate.open_us, aggregate.open_KB: around aggregate.Open in the IPC
//     handler; msgs_per_s; pipeline.
//   - core.transfer_us, core.free_us, core.notice_us: around Msg.Transfer,
//     Msg.Free and DeliverNotices; msgs_per_s; pipeline.
//   - core.secure_us: around Msg.Secure; host_us_p50; pipeline (the netsim
//     workloads never secure).
//   - ipc.call_us: Router.Call self time, excluding the handler's Open;
//     msgs_per_s; pipeline.
//   - vm.read_us: around Msg.Read; msgs_per_s; pipeline.
//   - protocols.sim_us, osiris.sim_us, netsim.link_sim_us: profiler stages
//     ip/udp/swp, osiris and net; sim_Mbps; bulk.
//   - netsim.wait_sim_us: the profiler's synthesized sched wait, queueing
//     in the window; sim_Mbps; bulk and small.
//   - rings.sim_us: ring-* stages; sim_Mbps; small (zero in bulk).
//   - ipc.sim_us, core.sim_us, aggregate.sim_us, vm.sim_us: the ipc, core,
//     aggregate and vm stages, or the simulated-clock self time of the
//     pipeline's spans; sim_Mbps; bulk (ipc) and pipeline.
//   - core.fbuf_allocs_per_msg, core.cache_hit_pct, core.transfers_per_msg,
//     core.notices_per_msg: Manager.Snapshot; msgs_per_s; small, pipeline.
//   - ipc.calls_per_msg: Router.Calls; sim_Mbps; bulk (zero in small).
//   - rings.doorbells_per_msg, rings.spin_hit_pct: Router.RingStats;
//     sim_Mbps; small (zero in bulk).
//   - osiris.pdus_per_msg (data and ack PDUs sent), osiris.rx_cached_pct:
//     Driver.TxPDUs, RxPDUs and RxCachedAllocs; msgs_per_s and
//     alloc_KB_per_msg; bulk.
//   - vm.tlb_miss_per_msg: Sys.TLB.Stats; sim_Mbps; bulk.
//   - obs.trace_overhead_pct: traced over untraced host time per message,
//     minus one; moves nothing, since end-to-end runs are untraced.
//
// The traced run first repeats the untraced measurement for half the time
// budget, then runs with tracing on for the other half. In bulk and small it
// passes obs.New with span.NewRecorder through netsim.Config.Obs, attaches
// profile.Attach, and folds the data path's (layer, stage) totals over a
// fixed message window into module rows (ip/udp/swp -> protocols, ring-* ->
// rings, net -> netsim.link, sched -> netsim.wait); the rows sum to the
// data path's modelled time per message because the profiler partitions it
// exactly. In pipeline the benchmark records one span per message and a
// child span (name, start, end, parent) around every public call above,
// stamped on both the host and the simulated clock, with Go heap deltas
// from runtime/metrics around the aggregate calls; a call's self time is
// its duration minus the time its children cover. Counters are read before
// and after the fixed window. Spans stay in memory (the last few messages)
// and are written to .bench_build/spans/ when the run ends.
//
// Left for a later change: host time per layer inside netsim. It needs
// spans inside the program, so in bulk and small the host-time rows
// (the *_us rows that are not *.sim_us) read 0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and output checks.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the JSON
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; samples, when positive, is printed beside it.
func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-28s %14.6g %-9s", name, v, unit)
	if samples > 0 {
		line += fmt.Sprintf(" samples=%d", samples)
	}
	r.notes = append(r.notes, line)
}

// note records an informational line.
func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count records n messages attempted, bad of which were not delivered
// intact or failed an output check.
func (r *report) count(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// fail records a failed output check that invalidates n messages.
func (r *report) fail(n int, format string, args ...interface{}) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 && r.attempted > 0 }

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"bulk":     func(o options, r *report) error { return runNet(bulkSpec, o, r) },
	"small":    func(o options, r *report) error { return runNet(smallSpec, o, r) },
	"pipeline": runPipeline,
}

func main() {
	// One goroutine drives each workload, and the runtime gets one
	// processor: garbage collection then runs inline with the program
	// instead of racing it on another CPU, so host time is the program's
	// whole cost on one CPU and does not depend on a second CPU's load,
	// which on a shared machine made p99 several times noisier.
	runtime.GOMAXPROCS(1)
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "bulk", "workload: bulk, small or pipeline")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (1 gives the nominal message sizes)")
	flag.Float64Var(&o.seconds, "seconds", 30, "host seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", o.workload, trace, o.seconds)
		os.Exit(2)
	}

	r := newReport()
	r.note("host %s", hostStamp())
	r.note("workload %s seed %d seconds %g trace %v", o.workload, o.seed, o.seconds, o.trace)
	if err := run(o, r); err != nil {
		r.fail(0, "%v", err)
	}
	r.note("%-28s %14.6g %-9s attempted=%d failed=%d", "fail_ratio",
		float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted, r.failed)
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if !res.Correct {
		// A failed check is never reported as a performance number.
		res.Metrics = map[string]metric{}
	}
	w := bufio.NewWriter(os.Stdout)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// hostStamp names the machine the numbers come from, so numbers from
// different machines are never compared silently.
func hostStamp() string {
	return fmt.Sprintf("go=%s os=%s/%s gomaxprocs=%d nproc=%d cpu=%q",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
