// Command fbufsim runs one configurable cross-domain transfer and prints
// an annotated trace of every costed step — a teaching tool for seeing
// exactly where the fbuf optimizations remove work.
//
// Usage:
//
//	fbufsim [-mode cached-volatile|volatile|cached|plain] [-pages N] [-hops N] [-domains N]
//	        [-profile] [-flightrec dump.json]
//	        [-trace out.json] [-metrics out.json] [-events=false]
//	fbufsim -stack [-mode ...] [-bytes N] [-profile] [-flightrec dump.json] [-trace out.json]
//
// Example output (cached-volatile, second hop): every line shows the
// simulated time consumed by that step, with the tracer's structured
// events indented beneath it; the steady-state hop costs only the TLB
// misses of actually touching the data. -trace writes the full event
// stream as Chrome trace-event JSON (open at ui.perfetto.dev), -metrics a
// JSON snapshot of every counter and gauge. -profile attaches the span
// layer and prints the per-stage latency attribution of the run's
// transfers; -flightrec keeps a bounded flight recorder attached and
// writes a Perfetto dump to the given path if an anomaly (allocation
// failure, copy fallback, fault verdict) trips it.
//
// -stack instead sends a warm-up and then one measured message through the
// paper's 3-domain UDP/IP loopback stack (app | netserver | receiver) and
// prints the span profiler's layer × stage attribution of the measured
// message, whose rows sum to its end-to-end time, then the time Send
// spends after the sink ends the trace, then the total, which is the sum
// of the two. That tail is the sending stubs' Free once their calls
// return: nothing for cached/volatile fbufs, the originator's write
// permission restored on recycle for cached ones (one 13 µs ProtChange
// per page), and unmapping and teardown for uncached ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fbufs"
	"fbufs/internal/core"
	"fbufs/internal/obs"
	"fbufs/internal/obs/profile"
	"fbufs/internal/obs/span"
	"fbufs/internal/protocols"
)

// validModes lists the -mode spellings, in the order help text shows them.
var validModes = []string{"cached-volatile", "volatile", "cached", "plain"}

func optsFor(mode string) (fbufs.Options, bool) {
	switch mode {
	case "cached-volatile":
		return core.CachedVolatile(), true
	case "volatile":
		return core.Uncached(), true
	case "cached":
		return core.CachedNonVolatile(), true
	case "plain":
		return core.UncachedNonVolatile(), true
	}
	return fbufs.Options{}, false
}

// config is the full run configuration (flag values, testable directly).
type config struct {
	mode     string
	pages    int
	hops     int
	ndomains int
	stack    bool
	msgBytes int

	tracePath   string // Chrome trace-event JSON output, "" = off
	metricsPath string // metrics snapshot JSON output, "" = off
	events      bool   // print tracer events under each step
	fbsan       bool   // enable the runtime sanitizer for the run
	profile     bool   // attach the span layer, print latency attribution
	flightPath  string // flight-recorder Perfetto dump on anomaly, "" = off

	chaos   bool  // run the seeded fault-injection schedules instead
	conform bool  // replay the model-based conformance differential instead
	seed    int64 // schedule / differential seed
}

func main() {
	var cfg config
	flag.StringVar(&cfg.mode, "mode", "cached-volatile", "fbuf variant: cached-volatile, volatile, cached, plain")
	flag.IntVar(&cfg.pages, "pages", 4, "fbuf size in pages")
	flag.IntVar(&cfg.hops, "hops", 3, "number of messages to trace")
	flag.IntVar(&cfg.ndomains, "domains", 2, "receiver chain length (>=2 including originator)")
	flag.BoolVar(&cfg.stack, "stack", false, "trace a 3-domain UDP/IP loopback stack instead (per-layer breakdown)")
	flag.IntVar(&cfg.msgBytes, "bytes", 65536, "message size for -stack mode")
	flag.StringVar(&cfg.tracePath, "trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	flag.StringVar(&cfg.metricsPath, "metrics", "", "write a JSON metrics snapshot to this file")
	flag.BoolVar(&cfg.events, "events", true, "print structured tracer events beneath each step")
	flag.BoolVar(&cfg.fbsan, "fbsan", false, "enable the fbsan runtime sanitizer (canaries, DMA checks, shadow audits)")
	flag.BoolVar(&cfg.profile, "profile", false, "attach per-transfer spans and print the latency attribution")
	flag.StringVar(&cfg.flightPath, "flightrec", "", "attach the flight recorder; write a Perfetto dump here if an anomaly trips it")
	flag.BoolVar(&cfg.chaos, "chaos", false, "run the seeded fault-injection schedules (local + network) and verify convergence")
	flag.BoolVar(&cfg.conform, "conform", false, "replay the model-based conformance differential for -seed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for -chaos and -conform")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fbufsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) error {
	// Validate the mode before any dispatch: a typo must exit non-zero
	// even when -chaos or -conform would otherwise ignore the flag.
	opts, ok := optsFor(cfg.mode)
	if !ok {
		return fmt.Errorf("unknown mode %q (valid: %s)", cfg.mode, strings.Join(validModes, ", "))
	}
	if cfg.conform {
		return runConform(w, cfg.seed)
	}
	if cfg.chaos {
		return runChaos(w, cfg.seed)
	}
	if cfg.stack {
		return traceStack(w, opts, cfg)
	}
	if cfg.ndomains < 2 {
		return fmt.Errorf("need at least 2 domains")
	}

	sys := fbufs.New(4096)
	if cfg.fbsan {
		sys.Fbufs.EnableSanitizer()
	}
	o := sys.Observe(1 << 16)
	prof, fr := attachProfile(o, cfg)
	doms := []*fbufs.Domain{sys.NewDomain("origin")}
	for i := 1; i < cfg.ndomains; i++ {
		doms = append(doms, sys.NewDomain(fmt.Sprintf("recv%d", i)))
	}
	path, err := sys.NewPath("trace", opts, cfg.pages, doms...)
	if err != nil {
		return err
	}

	step := func(what string, fn func() error) {
		before := sys.Now()
		mark := o.Tracer.Total()
		if err := fn(); err != nil {
			fmt.Fprintf(w, "    %-42s -> ERROR: %v\n", what, err)
			return
		}
		fmt.Fprintf(w, "    %-42s %10v\n", what, sys.Now()-before)
		if cfg.events {
			for _, e := range o.Tracer.Since(mark) {
				fmt.Fprintf(w, "        · %s\n", o.Tracer.Format(e))
			}
		}
	}

	fmt.Fprintf(w, "fbufsim: %s fbufs, %d pages, %s -> %d receiver(s)\n\n",
		cfg.mode, cfg.pages, doms[0].Name, cfg.ndomains-1)
	word := []byte{0xfb, 0x0f, 0x00, 0x0d}
	for hop := 1; hop <= cfg.hops; hop++ {
		fmt.Fprintf(w, "message %d:\n", hop)
		tid := o.BeginTrace("hop", int64(cfg.pages)*fbufs.PageSize)
		var f *fbufs.Fbuf
		step("allocate from path allocator", func() error {
			var err error
			f, err = path.Alloc()
			return err
		})
		step("originator writes one word per page", func() error {
			for p := 0; p < cfg.pages; p++ {
				if err := f.Write(doms[0], p*fbufs.PageSize, word); err != nil {
					return err
				}
			}
			return nil
		})
		for i := 1; i < len(doms); i++ {
			step(fmt.Sprintf("transfer %s -> %s", doms[i-1].Name, doms[i].Name), func() error {
				return sys.Fbufs.Transfer(f, doms[i-1], doms[i])
			})
		}
		last := doms[len(doms)-1]
		step(last.Name+" reads one word per page", func() error {
			buf := make([]byte, 4)
			for p := 0; p < cfg.pages; p++ {
				if err := f.Read(last, p*fbufs.PageSize, buf); err != nil {
					return err
				}
			}
			return nil
		})
		for i := len(doms) - 1; i >= 0; i-- {
			step("free by "+doms[i].Name, func() error {
				return sys.Fbufs.Free(f, doms[i])
			})
		}
		o.EndTrace(tid)
		fmt.Fprintln(w)
	}

	st := sys.Fbufs.Snapshot()
	fmt.Fprintf(w, "totals: %v simulated; %d allocs (%d cache hits), %d transfers, "+
		"%d mapping ops, %d secures, %d recycles\n",
		sys.Now(), st.Allocs, st.CacheHits, st.Transfers, st.MappingsBuilt,
		st.Secures, st.Recycles)
	if cfg.fbsan {
		ss := sys.Fbufs.Sanitizer().Stats()
		fmt.Fprintf(w, "fbsan: %d pages poisoned, %d verified, %d DMA checks, %d shadow audits, %d violations\n",
			ss.PoisonedPages, ss.VerifiedPages, ss.DMAChecks, ss.ShadowAudits, ss.Violations)
	}
	if err := reportProfile(w, prof, fr, cfg); err != nil {
		return err
	}
	return export(sys, o, cfg)
}

// attachProfile wires the span layer, profiler, and flight recorder onto
// the run's observer as the -profile / -flightrec flags request.
func attachProfile(o *obs.Observer, cfg config) (*profile.Profiler, *profile.FlightRecorder) {
	if !cfg.profile && cfg.flightPath == "" {
		return nil, nil
	}
	if o.Spans == nil {
		o.Spans = span.NewRecorder(16)
	}
	var p *profile.Profiler
	if cfg.profile {
		p = profile.NewProfiler()
	}
	var fr *profile.FlightRecorder
	if cfg.flightPath != "" {
		fr = profile.NewFlightRecorder(o)
	}
	profile.Attach(o, p, fr)
	return p, fr
}

// reportProfile prints the attribution table and, when the flight recorder
// tripped, writes its Perfetto dump.
func reportProfile(w io.Writer, p *profile.Profiler, fr *profile.FlightRecorder, cfg config) error {
	if p != nil {
		fmt.Fprintf(w, "\nlatency attribution:\n")
		if err := p.Report().WriteText(w); err != nil {
			return err
		}
	}
	if fr != nil {
		fr.ScanEvents()
		dumped, err := fr.DumpIfTripped(cfg.flightPath)
		if err != nil {
			return err
		}
		if dumped {
			_, an := fr.Tripped()
			fmt.Fprintf(w, "\nflight recorder: anomaly %q at %s — dump written to %s\n",
				an.Kind, an.At, cfg.flightPath)
		} else {
			fmt.Fprintf(w, "\nflight recorder: no anomaly; no dump written\n")
		}
	}
	return nil
}

// export writes the trace and metrics files requested by the flags.
func export(sys *fbufs.System, o *obs.Observer, cfg config) error {
	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		if err := o.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if cfg.metricsPath != "" {
		f, err := os.Create(cfg.metricsPath)
		if err != nil {
			return err
		}
		if err := sys.PublishMetrics(o).WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// traceStack runs the paper's 3-domain UDP/IP loopback configuration with
// the span layer attached, and prints the span profiler's layer × stage
// attribution of a steady-state message (the warm-up message excluded),
// the time Send spent after the trace ended, and the total.
func traceStack(w io.Writer, opts fbufs.Options, cfg config) error {
	sys := fbufs.New(1 << 14)
	if cfg.fbsan {
		sys.Fbufs.EnableSanitizer()
	}
	o := sys.Observe(1 << 16)
	o.Spans = span.NewRecorder(16)
	prof, fr := attachProfile(o, cfg)
	src := sys.NewDomain("app")
	net := sys.NewDomain("netserver")
	sink := sys.NewDomain("receiver")
	s, err := protocols.NewLoopbackStack(sys.Env, protocols.StackConfig{
		Src: src, Net: net, Sink: sink,
		Opts:     opts,
		PDUBytes: 4096 + protocols.UDPHeaderBytes,
	})
	if err != nil {
		return err
	}
	// Warm up allocator caches and mappings, then measure one message.
	if err := s.Send(cfg.msgBytes); err != nil {
		return err
	}
	warm := o.Spans.CompletedCount()
	start := sys.Now()
	if err := s.Send(cfg.msgBytes); err != nil {
		return err
	}
	end := sys.Now()
	measured := profile.NewProfiler()
	traceEnd := start
	traces := o.Spans.Completed()
	for _, tr := range traces[len(traces)-int(o.Spans.CompletedCount()-warm):] {
		measured.Add(tr)
		traceEnd = max(traceEnd, tr.End)
	}

	fmt.Fprintf(w, "fbufsim -stack: %s fbufs, %d-byte message, app | netserver (UDP/IP) | receiver\n", cfg.mode, cfg.msgBytes)
	fmt.Fprintf(w, "simulated time per layer and stage (steady state; each instant goes to\nthe innermost span covering it):\n\n")
	if err := measured.Report().WriteText(w); err != nil {
		return err
	}
	total := end - start
	fmt.Fprintf(w, "\nafter the trace: %v\n", end-traceEnd)
	fmt.Fprintf(w, "total: %v for %d bytes = %.0f Mb/s\n",
		total, cfg.msgBytes, fbufs.Mbps(int64(cfg.msgBytes), total))
	if err := reportProfile(w, prof, fr, cfg); err != nil {
		return err
	}
	return export(sys, o, cfg)
}
