package bench

import (
	"fmt"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/faults"
	"fbufs/internal/machine"
	"fbufs/internal/netsim"
	"fbufs/internal/simtime"
)

// Ablations runs one experiment per design choice DESIGN.md calls out,
// reporting the with/without contrast.
func Ablations() ([]*Table, error) {
	var out []*Table
	for _, fn := range []func() (*Table, error){
		AblationOptimizations,
		AblationClearing,
		AblationIntegrated,
		AblationFreeListDiscipline,
		AblationSharedLibraries,
		AblationBusContention,
		AblationPDUSize,
		AblationWindow,
		AblationVCILocality,
		AblationCPUMemoryGap,
		AblationReliableTransport,
		AblationChecksum,
		AblationDomainChain,
	} {
		t, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AblationOptimizations isolates each fbuf optimization in the 3-domain
// loopback test: caching and volatility toggled independently.
func AblationOptimizations() (*Table, error) {
	t := &Table{
		Title:  "Ablation: fbuf optimization levels (3-domain loopback, 64KB messages)",
		Header: []string{"configuration", "throughput Mb/s"},
	}
	mk := func(cached, vol bool) core.Options {
		return core.Options{Cached: cached, Volatile: vol, Integrated: true, Populate: true}
	}
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"cached + volatile", mk(true, true)},
		{"cached only", mk(true, false)},
		{"volatile only (uncached)", mk(false, true)},
		{"neither (plain fbufs)", mk(false, false)},
	} {
		v, err := figure4Run(false, cfg.opts, 64*1024, 0, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%.0f", v)})
	}
	return t, nil
}

// AblationClearing quantifies the security page-clearing cost the caching
// optimization eliminates (paper: 57us/page on the DecStation).
func AblationClearing() (*Table, error) {
	t := &Table{
		Title:  "Ablation: page clearing (uncached 3-domain loopback, 64KB messages)",
		Header: []string{"configuration", "throughput Mb/s"},
	}
	for _, cfg := range []struct {
		name    string
		noClear bool
	}{
		{"uncached, clearing (default)", false},
		{"uncached, clearing skipped", true},
	} {
		opts := core.Uncached()
		opts.Integrated = true
		opts.NoClear = cfg.noClear
		v, err := figure4Run(false, opts, 64*1024, 0, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%.0f", v)})
	}
	return t, nil
}

// AblationIntegrated contrasts integrated buffer management (a single DAG
// root reference crosses the boundary) against per-fbuf descriptor
// marshalling, using many-fragment messages so the descriptor count bites.
func AblationIntegrated() (*Table, error) {
	t := &Table{
		Title:  "Ablation: integrated buffer management (3-domain loopback, 256KB messages)",
		Header: []string{"configuration", "throughput Mb/s"},
		Note:   "non-integrated transfers marshal one descriptor per fbuf (steps 2a/3c)",
	}
	for _, cfg := range []struct {
		name       string
		integrated bool
	}{
		{"integrated (DAG in fbufs)", true},
		{"per-fbuf descriptor lists", false},
	} {
		opts := core.CachedVolatile()
		opts.Integrated = cfg.integrated
		// Page-sized data fbufs make messages highly fragmented, so the
		// per-fbuf marshalling and eager-mapping work of non-integrated
		// transfers is visible (a 256KB message spans 64 data fbufs).
		v, err := figure4Run(false, opts, 256*1024, 1, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%.0f", v)})
	}
	return t, nil
}

// AblationFreeListDiscipline contrasts the paper's LIFO free list with
// FIFO under memory pressure: a reclaimer strips frames from idle fbufs
// between messages, and LIFO's warm-buffer reuse avoids refills.
func AblationFreeListDiscipline() (*Table, error) {
	t := &Table{
		Title:  "Ablation: free-list discipline under memory pressure (single crossing)",
		Header: []string{"discipline", "lazy refills", "per-hop us"},
		Note:   "LIFO reuses the most recently freed (still resident) fbuf first",
	}
	for _, fifo := range []bool{false, true} {
		r := newRig()
		opts := core.CachedVolatile()
		opts.FIFO = fifo
		p, err := r.mgr.NewPath("p", opts, 4, r.src, r.dst)
		if err != nil {
			return nil, err
		}
		p.SetQuota(16)
		// Populate a deep free list.
		var warm []*core.Fbuf
		for i := 0; i < 8; i++ {
			f, err := p.Alloc()
			if err != nil {
				return nil, err
			}
			warm = append(warm, f)
		}
		for _, f := range warm {
			if err := r.mgr.Free(f, r.src); err != nil {
				return nil, err
			}
		}
		hop := func() error {
			f, err := p.Alloc()
			if err != nil {
				return err
			}
			if err := f.TouchWrite(r.src, 1); err != nil {
				return err
			}
			if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
				return err
			}
			if err := f.TouchRead(r.dst); err != nil {
				return err
			}
			if err := r.mgr.Free(f, r.dst); err != nil {
				return err
			}
			return r.mgr.Free(f, r.src)
		}
		// Steady state with background reclamation of the coldest frames.
		start := r.clk.Now()
		const iters = 16
		for i := 0; i < iters; i++ {
			if err := hop(); err != nil {
				return nil, err
			}
			r.mgr.DeliverNotices(r.dst, r.src)
			r.mgr.ReclaimIdle(4) // pressure: strip one idle fbuf's frames
		}
		per := (r.clk.Now() - start).Microseconds() / iters
		name := "LIFO"
		if fifo {
			name = "FIFO"
		}
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%d", r.mgr.Snapshot().LazyRefills), fmt.Sprintf("%.0f", per)})
	}
	return t, nil
}

// AblationSharedLibraries removes the duplicated-text penalty from the
// three-domain end-to-end case ("the use of shared libraries should help
// mitigate this effect").
func AblationSharedLibraries() (*Table, error) {
	t := &Table{
		Title:  "Ablation: shared libraries (user-netserver-user, 8KB messages, window 1)",
		Header: []string{"configuration", "throughput Mb/s"},
	}
	for _, cfg := range []struct {
		name string
		off  bool
	}{
		{"duplicated text (no shared libraries)", false},
		{"shared libraries", true},
	} {
		res, err := netsim.Run(netsim.Config{
			Placement: netsim.UserNetserverUser,
			Opts:      core.CachedVolatile(),
			PDUBytes:  16 * 1024, MsgBytes: 8 * 1024, Count: 8, Window: 1,
			NoTextPenalty: cfg.off,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%.0f", res.ThroughputMbps)})
	}
	return t, nil
}

// AblationBusContention removes CPU/memory contention from the bus model,
// exposing the 367 Mb/s DMA-startup ceiling the paper derives for Osiris.
func AblationBusContention() (*Table, error) {
	t := &Table{
		Title:  "Ablation: TurboChannel memory contention (kernel-kernel, 1MB messages)",
		Header: []string{"configuration", "throughput Mb/s"},
		Note:   "paper: per-cell DMA startup caps Osiris at 367 Mb/s; contention yields 285",
	}
	for _, cfg := range []struct {
		name string
		zero bool
	}{
		{"with memory contention", false},
		{"idle-memory bus", true},
	} {
		res, err := netsim.Run(netsim.Config{
			Placement: netsim.KernelKernel,
			Opts:      core.CachedVolatile(),
			PDUBytes:  16 * 1024, MsgBytes: 1 << 20, Count: 5,
			ZeroContention: cfg.zero,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%.0f", res.ThroughputMbps)})
	}
	return t, nil
}

// AblationPDUSize reruns the uncached end-to-end case at 32 KB PDUs
// (paper section 4: halving protocol overhead makes even uncached fbufs
// I/O bound, shifting the caching benefit entirely into CPU load).
func AblationPDUSize() (*Table, error) {
	t := &Table{
		Title:  "Ablation: IP PDU size (user-user, 1MB messages)",
		Header: []string{"configuration", "PDU KB", "throughput Mb/s", "rx CPU %"},
	}
	uncached := core.UncachedNonVolatile()
	uncached.Integrated = true
	for _, cfg := range []struct {
		name string
		opts core.Options
		pdu  int
	}{
		{"cached", core.CachedVolatile(), 16},
		{"uncached", uncached, 16},
		{"cached", core.CachedVolatile(), 32},
		{"uncached", uncached, 32},
	} {
		res, err := netsim.Run(netsim.Config{
			Placement: netsim.UserUser, Opts: cfg.opts,
			PDUBytes: cfg.pdu * 1024, MsgBytes: 1 << 20, Count: 5,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%d", cfg.pdu),
			fmt.Sprintf("%.0f", res.ThroughputMbps), fmt.Sprintf("%.0f", res.RxCPU*100)})
	}
	return t, nil
}

// AblationWindow sweeps the sliding-window depth of the test protocol.
func AblationWindow() (*Table, error) {
	t := &Table{
		Title:  "Ablation: sliding-window depth (user-user, 64KB messages)",
		Header: []string{"window", "throughput Mb/s"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		res, err := netsim.Run(netsim.Config{
			Placement: netsim.UserUser, Opts: core.CachedVolatile(),
			PDUBytes: 16 * 1024, MsgBytes: 64 * 1024, Count: 12, Window: w,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", res.ThroughputMbps)})
	}
	return t, nil
}

// ReportMetric returns the headline simulated number for a figure: the
// named series' value at the largest message size (used by the testing.B
// harness via b.ReportMetric).
func ReportMetric(fig *Figure, series string) float64 {
	s := fig.Get(series)
	if s == nil || len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// AblationCPUMemoryGap tests the paper's section 2.2.1 prediction that
// page remapping and copying become memory bound as CPUs outpace memory:
// on a hypothetical machine with a 10x faster CPU but unchanged memory,
// the copy and remap mechanisms improve far less than 10x, while the
// cached/volatile fbuf path keeps pace with the CPU.
func AblationCPUMemoryGap() (*Table, error) {
	t := &Table{
		Title:  "Ablation: CPU/memory speed gap (per-page cost, 10x CPU, same memory)",
		Header: []string{"mechanism", "DecStation us/page", "10x-CPU us/page", "speedup"},
		Note:   "paper 2.2.1: remapping 'is likely to become more memory bound as the gap widens'",
	}
	base := machine.DecStation5000()
	fast := machine.FutureCPU(10)
	for _, mech := range []string{"fbufs, cached/volatile", "Remap", "Copy"} {
		slow, err := measurePerPageOn(newRigCost(base), mech, 64)
		if err != nil {
			return nil, err
		}
		quick, err := measurePerPageOn(newRigCost(fast), mech, 64)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{mech,
			fmt.Sprintf("%.1f", slow), fmt.Sprintf("%.1f", quick),
			fmt.Sprintf("%.1fx", slow/quick)})
	}
	return t, nil
}

// AblationReliableTransport swaps the harness's implicit acknowledgements
// for the real sliding-window protocol (protocols.SWP) and injects link
// loss, showing the cost of reliability machinery and of retransmission —
// the retain-for-retransmit case is the paper's stated argument for copy
// semantics over immutable buffers.
func AblationReliableTransport() (*Table, error) {
	t := &Table{
		Title:  "Ablation: reliable transport (user-user, 64KB messages)",
		Header: []string{"configuration", "throughput Mb/s", "delivered"},
		Note:   "SWP: sequence numbers, cumulative acks, timer retransmission over the ATM link",
	}
	for _, cfg := range []struct {
		name string
		swp  bool
		drop int
	}{
		{"harness acks, clean link", false, 0},
		{"SWP transport, clean link", true, 0},
		{"SWP transport, 1-in-9 PDU loss", true, 9},
	} {
		var plane *faults.Plane
		if cfg.drop > 0 {
			plane = faults.NewPlane(1)
			plane.Link(netsim.LinkAB).DropPerMillion = 1_000_000 / uint32(cfg.drop)
			plane.Link(netsim.LinkBA).DropPerMillion = 1_000_000 / uint32(cfg.drop)
		}
		res, err := netsim.Run(netsim.Config{
			Placement: netsim.UserUser,
			Opts:      core.CachedVolatile(),
			PDUBytes:  16 * 1024, MsgBytes: 64 * 1024, Count: 10,
			UseSWP: cfg.swp, Faults: plane,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name,
			fmt.Sprintf("%.0f", res.ThroughputMbps), fmt.Sprintf("%d", res.Delivered)})
	}
	return t, nil
}

// AblationChecksum turns on UDP checksumming in the loopback stack: the
// per-byte data handling the paper's section 5.2 notes is one of the few
// manipulations "applied to the entire data", and it dwarfs buffer-editing
// costs.
func AblationChecksum() (*Table, error) {
	t := &Table{
		Title:  "Ablation: UDP checksumming (3-domain loopback, 64KB messages)",
		Header: []string{"configuration", "throughput Mb/s"},
	}
	for _, cfg := range []struct {
		name     string
		checksum bool
	}{
		{"checksum off (x-kernel default)", false},
		{"checksum on (reads every byte, twice)", true},
	} {
		v, err := figure4Run(false, core.CachedVolatile(), 64*1024, 0, cfg.checksum)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{cfg.name, fmt.Sprintf("%.0f", v)})
	}
	return t, nil
}

// AblationDomainChain answers the paper's section 5.1 question — "how many
// domains might a data path intersect in practice?" — with a measurement:
// a message relayed through a chain of N protection domains. With
// cached/volatile fbufs each extra domain costs only the IPC invocation
// plus the receiver's TLB touches; with uncached fbufs every extra domain
// adds per-page mapping work, so the per-crossing penalty grows with the
// chain.
func AblationDomainChain() (*Table, error) {
	t := &Table{
		Title:  "Ablation: chain length (64KB message relayed through N domains)",
		Header: []string{"domains", "cached/volatile Mb/s", "uncached Mb/s"},
		Note: "each added domain costs ~110us of control transfer in BOTH configurations " +
			"(intermediaries never touch the body, so no mappings are built for them); " +
			"uncached merely starts from a worse base — the paper's 5.1 point",
	}
	const bytes = 64 * 1024
	const pages = bytes / machine.PageSize
	measure := func(n int, opts core.Options) (float64, error) {
		r := newRigCost(machine.DecStation5000())
		doms := []*domain.Domain{r.src}
		for i := 1; i < n; i++ {
			doms = append(doms, r.reg.New(fmt.Sprintf("hop%d", i)))
		}
		p, err := r.mgr.NewPath("chain", opts, pages, doms...)
		if err != nil {
			return 0, err
		}
		p.SetQuota(16)
		hop := func() error {
			f, err := p.Alloc()
			if err != nil {
				return err
			}
			if err := f.TouchWrite(doms[0], 1); err != nil {
				return err
			}
			for i := 1; i < n; i++ {
				// Each relay is a cross-domain invocation carrying the buffer.
				r.sys.Sink().Charge(r.sys.Cost.IPCLatency)
				if err := r.mgr.Transfer(f, doms[i-1], doms[i]); err != nil {
					return err
				}
				if err := r.mgr.Free(f, doms[i-1]); err != nil {
					return err
				}
			}
			last := doms[n-1]
			if err := f.TouchRead(last); err != nil {
				return err
			}
			if err := r.mgr.Free(f, last); err != nil {
				return err
			}
			// Deallocation notice rides the next RPC reply to the owner.
			r.mgr.DeliverNotices(last, doms[0])
			return nil
		}
		for i := 0; i < 2; i++ { // warm up
			if err := hop(); err != nil {
				return 0, err
			}
		}
		const iters = 4
		start := r.clk.Now()
		for i := 0; i < iters; i++ {
			if err := hop(); err != nil {
				return 0, err
			}
		}
		return simtime.Mbps(int64(bytes)*iters, r.clk.Now()-start), nil
	}
	uncached := core.Uncached()
	uncached.Integrated = true
	for _, n := range []int{2, 3, 4, 5, 6} {
		cv, err := measure(n, core.CachedVolatile())
		if err != nil {
			return nil, err
		}
		uc, err := measure(n, uncached)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", cv), fmt.Sprintf("%.0f", uc)})
	}
	return t, nil
}
