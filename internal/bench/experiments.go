package bench

import (
	"fmt"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/netsim"
	"fbufs/internal/obs"
	"fbufs/internal/protocols"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
	"fbufs/internal/xfer"
	"fbufs/internal/xkernel"
)

// observer, when set, is attached to every rig and netsim run the
// experiments build, so cmd/fbufbench can export the events of a whole
// benchmark run.
var observer *obs.Observer

// SetObserver installs (or, with nil, removes) the benchmark observer.
func SetObserver(o *obs.Observer) { observer = o }

// rig is one fresh simulated host for the single-host experiments.
type rig struct {
	clk *simtime.Clock
	sys *vm.System
	reg *domain.Registry
	mgr *core.Manager
	env *xkernel.Env
	src *domain.Domain
	dst *domain.Domain
}

func newRig() *rig { return newRigCost(machine.DecStation5000()) }

// newRigCost builds a rig over an explicit machine profile (the CPU/memory
// gap ablation swaps in machine.FutureCPU).
func newRigCost(cost *machine.CostTable) *rig {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(cost, 1<<15, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	// Larger chunks than the default so the Table 1 sweep can build
	// single fbufs of 128 pages (the incremental measurement compares 64
	// and 128 pages, keeping both runs past the TLB's reach).
	mgr := core.NewManagerGeometry(sys, reg, 256, 128)
	env := xkernel.NewEnv(sys, mgr, reg)
	r := &rig{clk: clk, sys: sys, reg: reg, mgr: mgr, env: env}
	if observer != nil {
		sys.Obs = observer
		observer.SetNow(clk.Now)
		mgr.RegisterTraceNames("")
	}
	r.src = reg.New("src")
	r.dst = reg.New("dst")
	return r
}

// facilityFor constructs a transfer facility on a fresh rig.
func facilityFor(name string, r *rig, bytes int) (xfer.Facility, error) {
	noClear := func(o core.Options) core.Options { o.NoClear = true; return o }
	switch name {
	case "fbufs, cached/volatile":
		return xfer.NewFbuf(r.mgr, r.src, r.dst, core.CachedVolatile(), bytes)
	case "fbufs, volatile":
		return xfer.NewFbuf(r.mgr, r.src, r.dst, noClear(core.Uncached()), bytes)
	case "fbufs, cached":
		return xfer.NewFbuf(r.mgr, r.src, r.dst, core.CachedNonVolatile(), bytes)
	case "fbufs":
		return xfer.NewFbuf(r.mgr, r.src, r.dst, noClear(core.UncachedNonVolatile()), bytes)
	case "Mach COW":
		return xfer.NewCOW(r.sys, r.src, r.dst, bytes)
	case "Copy":
		return xfer.NewCopier(r.sys, r.src, r.dst, bytes)
	case "Remap":
		return xfer.NewRemap(r.sys, r.src, r.dst, bytes), nil
	case "Mach native":
		return xfer.NewMachNative(r.sys, r.src, r.dst, bytes)
	}
	return nil, fmt.Errorf("bench: unknown facility %q", name)
}

// measurePerPage returns the steady-state incremental per-page cost in
// microseconds, using the paper's method: warm up, then compare runs at
// two sizes so fixed per-message costs cancel.
func measurePerPage(name string, pages int) (float64, error) {
	return measurePerPageOn(newRig(), name, pages)
}

func measurePerPageOn(r *rig, name string, pages int) (float64, error) {
	run := func(pg int) (simtime.Duration, error) {
		f, err := facilityFor(name, r, pg*machine.PageSize)
		if err != nil {
			return 0, err
		}
		for i := 0; i < 2; i++ { // warm up allocator caches and mappings
			if err := f.Hop(); err != nil {
				return 0, err
			}
		}
		const iters = 4
		start := r.clk.Now()
		for i := 0; i < iters; i++ {
			if err := f.Hop(); err != nil {
				return 0, err
			}
		}
		return (r.clk.Now() - start) / iters, nil
	}
	d1, err := run(pages)
	if err != nil {
		return 0, err
	}
	d2, err := run(2 * pages)
	if err != nil {
		return 0, err
	}
	return (d2 - d1).Microseconds() / float64(pages), nil
}

// Table1 reproduces the paper's Table 1: incremental per-page cost and
// calculated asymptotic throughput for each transfer mechanism, measured
// through the real mechanisms on the simulated DecStation.
func Table1() (*Table, error) {
	mechanisms := []string{
		"fbufs, cached/volatile",
		"fbufs, volatile",
		"fbufs, cached",
		"fbufs",
		"Mach COW",
		"Copy",
	}
	t := &Table{
		Title:  "Table 1: Incremental per-page costs (single domain crossing)",
		Header: []string{"mechanism", "us/page", "asymptotic Mb/s"},
		Note:   "fbuf rows exclude page clearing, as in the paper; see the clearing ablation",
	}
	for _, m := range mechanisms {
		us, err := measurePerPage(m, 64)
		if err != nil {
			return nil, err
		}
		mbps := float64(machine.PageSize) * 8 / us
		t.Rows = append(t.Rows, []string{m, fmt.Sprintf("%.1f", us), fmt.Sprintf("%.0f", mbps)})
	}
	// The remap comparison from section 2.2.1.
	r := newRig()
	rm := xfer.NewRemap(r.sys, r.src, r.dst, machine.PageSize)
	if err := rm.PingPong(); err != nil {
		return nil, err
	}
	start := r.clk.Now()
	for i := 0; i < 8; i++ {
		if err := rm.PingPong(); err != nil {
			return nil, err
		}
	}
	pp := (r.clk.Now() - start).Microseconds() / 16
	t.Rows = append(t.Rows, []string{"Remap (ping-pong)", fmt.Sprintf("%.1f", pp),
		fmt.Sprintf("%.0f", float64(machine.PageSize)*8/pp)})
	oneWay, err := measurePerPage("Remap", 32)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Remap (one-way, no clear)", fmt.Sprintf("%.1f", oneWay),
		fmt.Sprintf("%.0f", float64(machine.PageSize)*8/oneWay)})
	return t, nil
}

// Figure3Sizes is the message-size sweep of Figure 3.
var Figure3Sizes = []int{64, 256, 1024, 4096, 16384, 65536, 262144}

// Figure3 reproduces throughput across a single domain boundary crossing
// as a function of message size, IPC latency included ("the throughput
// rates shown for small messages in these graphs are strongly influenced
// by the control transfer latency of the IPC mechanism").
func Figure3() (*Figure, error) {
	series := []string{
		"Mach native",
		"fbufs, cached/volatile",
		"fbufs, volatile",
		"fbufs, cached",
		"fbufs",
	}
	fig := &Figure{
		Title:  "Figure 3: Throughput of a single domain boundary crossing",
		XLabel: "message bytes",
		YLabel: "throughput Mb/s",
		X:      Figure3Sizes,
	}
	for _, name := range series {
		var ys []float64
		for _, size := range Figure3Sizes {
			r := newRig()
			f, err := facilityFor(name, r, size)
			if err != nil {
				return nil, err
			}
			hop := func() error {
				// One cross-domain invocation carries the message.
				r.sys.Sink().Charge(r.sys.Cost.IPCLatency)
				return f.Hop()
			}
			for i := 0; i < 2; i++ {
				if err := hop(); err != nil {
					return nil, err
				}
			}
			const iters = 4
			start := r.clk.Now()
			for i := 0; i < iters; i++ {
				if err := hop(); err != nil {
					return nil, err
				}
			}
			per := (r.clk.Now() - start) / iters
			ys = append(ys, simtime.Mbps(int64(size), per))
		}
		fig.Series = append(fig.Series, Series{Name: name, Y: ys})
	}
	return fig, nil
}

// Figure4Sizes is the message-size sweep of Figure 4.
var Figure4Sizes = []int{1024, 4096, 8192, 16384, 65536, 262144, 1048576}

// figure4Run measures loopback throughput for one configuration and size:
// the stack in one domain or three, data fbufs of fbufPages pages (0 = the
// stack's default; the integrated-transfer ablation shrinks them to
// maximize fragmentation), and UDP checksumming on or off.
func figure4Run(single bool, opts core.Options, size, fbufPages int, checksum bool) (float64, error) {
	r := newRig()
	var src, net, sink *domain.Domain
	if single {
		d := r.reg.New("monolith")
		src, net, sink = d, d, d
	} else {
		src, net, sink = r.reg.New("app"), r.reg.New("netserver"), r.reg.New("receiver")
	}
	s, err := protocols.NewLoopbackStack(r.env, protocols.StackConfig{
		Src: src, Net: net, Sink: sink,
		Opts: opts,
		// 4 KB PDUs, aligned so a 4096-byte message plus the UDP header
		// fits exactly one PDU — the paper's plot peaks exactly at 4 KB.
		PDUBytes:      4096 + protocols.UDPHeaderBytes,
		DataFbufPages: fbufPages,
		Checksum:      checksum,
	})
	if err != nil {
		return 0, err
	}
	if err := s.Send(size); err != nil { // warm up
		return 0, err
	}
	const iters = 4
	start := r.clk.Now()
	for i := 0; i < iters; i++ {
		if err := s.Send(size); err != nil {
			return 0, err
		}
	}
	return simtime.Mbps(int64(size)*iters, r.clk.Now()-start), nil
}

// Figure4 reproduces the UDP/IP local loopback throughput experiment:
// the whole stack in one domain versus three domains with cached and
// uncached fbufs, 4 KB IP PDUs, infinitely fast simulated network.
func Figure4() (*Figure, error) {
	uncached := core.Uncached()
	uncached.Integrated = true // the system stays integrated; only caching is off
	configs := []struct {
		name   string
		single bool
		opts   core.Options
	}{
		{"single domain", true, core.CachedVolatile()},
		{"3 domains, cached fbufs", false, core.CachedVolatile()},
		{"3 domains, uncached fbufs", false, uncached},
	}
	fig := &Figure{
		Title:  "Figure 4: Throughput of a UDP/IP local loopback test",
		XLabel: "message bytes",
		YLabel: "throughput Mb/s",
		X:      Figure4Sizes,
		Note:   "4KB IP PDUs; loopback below IP simulates an infinitely fast network",
	}
	for _, cfg := range configs {
		var ys []float64
		for _, size := range Figure4Sizes {
			v, err := figure4Run(cfg.single, cfg.opts, size, 0, false)
			if err != nil {
				return nil, err
			}
			ys = append(ys, v)
		}
		fig.Series = append(fig.Series, Series{Name: cfg.name, Y: ys})
	}
	return fig, nil
}

// Figure56Sizes is the message-size sweep of Figures 5 and 6.
var Figure56Sizes = []int{4096, 8192, 16384, 65536, 262144, 1048576}

var placements = []netsim.Placement{
	netsim.KernelKernel, netsim.UserUser, netsim.UserNetserverUser,
}

// figure56 runs the end-to-end sweep for one fbuf configuration.
func figure56(title string, opts core.Options, note string) (*Figure, error) {
	fig := &Figure{
		Title:  title,
		XLabel: "message bytes",
		YLabel: "throughput Mb/s",
		X:      Figure56Sizes,
		Note:   note,
	}
	for _, p := range placements {
		var ys []float64
		for _, size := range Figure56Sizes {
			res, err := netsim.Run(netsim.Config{
				Placement: p,
				Opts:      opts,
				PDUBytes:  16*1024 + protocols.UDPHeaderBytes,
				MsgBytes:  size,
				Count:     6,
				Obs:       observer,
			})
			if err != nil {
				return nil, err
			}
			ys = append(ys, res.ThroughputMbps)
		}
		fig.Series = append(fig.Series, Series{Name: p.String(), Y: ys})
	}
	return fig, nil
}

// Figure5 reproduces UDP/IP end-to-end throughput between the two
// simulated DecStations using cached, volatile fbufs (16 KB IP PDUs,
// sliding-window test protocol, Osiris boards over a null modem).
func Figure5() (*Figure, error) {
	return figure56(
		"Figure 5: UDP/IP end-to-end throughput using cached, volatile fbufs",
		core.CachedVolatile(),
		"I/O ceiling: 285 Mb/s (TurboChannel DMA-startup + memory contention)")
}

// Figure6 reproduces the same experiment with uncached, non-volatile
// fbufs — the page-remapping-comparable configuration.
func Figure6() (*Figure, error) {
	opts := core.UncachedNonVolatile()
	opts.Integrated = true
	return figure56(
		"Figure 6: UDP/IP end-to-end throughput using uncached, non-volatile fbufs",
		opts,
		"uncached costs land on the receiving host; non-volatile costs on the transmitter")
}

// CPULoad reproduces the section 4 CPU-load observations: receive-side
// CPU utilization during 1 MB-message reception, cached vs uncached, at
// 16 KB and 32 KB IP PDU sizes.
func CPULoad() (*Table, error) {
	t := &Table{
		Title:  "CPU load: receive-side utilization, 1MB messages, user-user",
		Header: []string{"configuration", "PDU KB", "throughput Mb/s", "rx CPU %", "tx CPU %"},
		Note:   "paper: cached 88% vs saturated (16KB PDU); 55% vs saturated (32KB PDU)",
	}
	uncached := core.UncachedNonVolatile()
	uncached.Integrated = true
	for _, cfg := range []struct {
		name string
		opts core.Options
		pdu  int
	}{
		{"cached/volatile", core.CachedVolatile(), 16},
		{"uncached/non-volatile", uncached, 16},
		{"cached/volatile", core.CachedVolatile(), 32},
		{"uncached/non-volatile", uncached, 32},
	} {
		res, err := netsim.Run(netsim.Config{
			Placement: netsim.UserUser,
			Opts:      cfg.opts,
			PDUBytes:  cfg.pdu*1024 + protocols.UDPHeaderBytes,
			MsgBytes:  1 << 20,
			Count:     6,
			Window:    4,
			Obs:       observer,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.name, fmt.Sprintf("%d", cfg.pdu),
			fmt.Sprintf("%.0f", res.ThroughputMbps),
			fmt.Sprintf("%.0f", res.RxCPU*100),
			fmt.Sprintf("%.0f", res.TxCPU*100),
		})
	}
	return t, nil
}
