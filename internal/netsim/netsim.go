// Package netsim wires complete simulated hosts — CPU, TurboChannel bus,
// VM system, protection domains, fbuf facility, protocol stack, and Osiris
// adapter — and runs the paper's end-to-end experiments: two DecStations
// connected by a null modem, a sliding-window test protocol over UDP/IP,
// and the three protection-domain placements of Figures 5 and 6
// (kernel–kernel, user–user, user–netserver–user).
//
// The simulation is event-driven. Each host's protocol work is metered in
// simulated time and occupies its CPU resource; each PDU's cell DMA
// occupies the sending bus, serializes onto the link, and occupies the
// receiving bus in pipelined fashion; receive interrupts are scheduled at
// DMA completion. Throughput and per-host CPU utilization fall out of the
// resource timelines.
package netsim

import (
	"fmt"
	"hash/crc32"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/faults"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/osiris"
	"fbufs/internal/protocols"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
	"fbufs/internal/xkernel"
)

// Placement selects how the protocol stack is distributed over protection
// domains, matching the configurations of Figures 5 and 6.
type Placement int

// Placements.
const (
	// KernelKernel: the entire stack, test protocol included, in the
	// kernel — the baseline with no domain crossings.
	KernelKernel Placement = iota
	// UserUser: the test protocol in a user domain; one kernel/user
	// crossing per host.
	UserUser
	// UserNetserverUser: UDP/IP in a user-level network server; both a
	// user/user and a kernel/user crossing per host.
	UserNetserverUser
)

func (p Placement) String() string {
	switch p {
	case KernelKernel:
		return "kernel-kernel"
	case UserUser:
		return "user-user"
	case UserNetserverUser:
		return "user-netserver-user"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Config parameterizes an end-to-end run.
type Config struct {
	Placement Placement
	// Opts selects the fbuf optimization level throughout both hosts.
	Opts core.Options
	// PDUBytes is IP's fragmentation size (16 KB in Figure 5/6; 32 KB in
	// the paper's PDU-size ablation).
	PDUBytes int
	// MsgBytes is the test-protocol message size.
	MsgBytes int
	// Count is the number of messages to send (>= 2; steady-state
	// throughput is measured between the first and last delivery).
	Count int
	// Window is the sliding-window depth (outstanding messages).
	Window int
	// NoTextPenalty disables the duplicated-library-text surcharge that
	// normally applies in the three-domain placement (shared-libraries
	// ablation; see paper section 4).
	NoTextPenalty bool
	// ZeroContention removes the CPU/memory-contention stall from the
	// bus model, raising the I/O ceiling from 285 to the DMA-startup
	// bound of 367 Mb/s (hardware ablation; see paper section 4).
	ZeroContention bool
	// Verify makes the sender write the deterministic test pattern into
	// every message and the sink check each delivered payload against it
	// (integrity under fault injection; costs the CPU data touching).
	Verify bool
	// UseSWP replaces the harness's implicit acknowledgement scheme with
	// the real sliding-window protocol layer (protocols.SWP) between the
	// test protocol and UDP: sequence numbers, cumulative acks, and
	// timer-driven retransmission.
	UseSWP bool
	// DropEvery, when positive, makes the link corrupt (drop) every Nth
	// transmitted PDU. Requires UseSWP for reliable delivery.
	DropEvery int
	// Frames is each host's physical memory capacity in page frames
	// (0: 32768 frames, 128 MB). Only the frames a run allocates cost Go
	// memory.
	Frames int
	// Faults, when non-nil, is shared by both hosts (each host's
	// vm.System.FaultPlane) and drives per-link loss/corruption/
	// duplication/reordering/partitions in transmit: host A's outgoing
	// link is LinkAB, host B's is LinkBA. Requires UseSWP for reliable
	// delivery when link faults are configured.
	Faults *faults.Plane
	// Obs, when non-nil, is attached to both hosts: host A keeps trace
	// base 0, host B gets base 100, so one Perfetto trace shows both
	// machines' domains as distinct processes (prefixed "A."/"B.").
	Obs *obs.Observer
	// UseRings routes every cross-domain call between the stack's layers
	// through shared-memory submission/completion rings (internal/rings):
	// only doorbells on empty→non-empty transitions are charged as
	// control transfers, descriptors cross unmarshalled, and deallocation
	// notices coalesce into one completion entry per drain. Off by
	// default, leaving the legacy per-transfer IPC path byte-identical.
	UseRings bool
	// AdmissionBudget, when positive, installs a per-tenant admission
	// controller on each host with that many chunks of budget: the app
	// data path joins an "app" class (weight 3) and the protocol header
	// paths a "proto" class (weight 1). When the app class overruns its
	// share, allocations fail with core.ErrAdmission and — with UseSWP —
	// the sender's effective window halves via SWP.Backpressure until the
	// pressure drains.
	AdmissionBudget int
}

// Result reports a run's measurements.
type Result struct {
	// ThroughputMbps is steady-state delivered throughput.
	ThroughputMbps float64
	// TxCPU and RxCPU are CPU utilizations over the run.
	TxCPU, RxCPU float64
	// Elapsed is the simulated time of the final delivery.
	Elapsed simtime.Time
	// Delivered counts messages received intact.
	Delivered int
}

// Host is one simulated DecStation.
type Host struct {
	Name  string
	sched *simtime.Scheduler
	cost  *machine.CostTable

	Sys *vm.System
	Reg *domain.Registry
	Mgr *core.Manager
	Env *xkernel.Env

	CPU *simtime.Resource
	Bus *simtime.Resource

	meter vm.Meter

	App *domain.Domain // where the test protocol runs
	Net *domain.Domain // where UDP/IP run

	Driver *osiris.Driver
	IP     *protocols.IP
	UDP    *protocols.UDP
	Test   *protocols.TestProto // data endpoint
	Ack    *protocols.TestProto // acknowledgement endpoint
	SWP    *protocols.SWP       // reliable transport (Config.UseSWP)

	peer    *Host
	linkID  int // faults.Plane link id for this host's outgoing direction
	txCount int
	dropped int
	lossRng uint64
	cfg     Config
	// rxFree are this host's idle receive records (see rxEvent).
	rxFree []*rxEvent

	// ctxs are the aggregate arenas the host's protocol layers allocate
	// from; Shutdown closes them so their held node buffers drain.
	ctxs []*aggregate.Ctx
}

// Fault-plane link ids for the two directed links of the null modem.
const (
	LinkAB = 0 // host A -> host B
	LinkBA = 1 // host B -> host A
)

// hostTimers adapts the scheduler to the SWP retransmission TimerSource:
// a firing timer runs as a metered CPU task on its host.
type hostTimers struct{ h *Host }

func (ht hostTimers) After(d simtime.Duration, fn func()) {
	ht.h.sched.After(d, func() {
		_ = ht.h.Exec(ht.h.sched.Now(), func() error { fn(); return nil })
	})
}

const (
	dataPort = 100
	ackPort  = 101
	dataVCI  = osiris.VCI(5)
	ackVCI   = osiris.VCI(6)
)

// newHost builds a host for the given configuration. txVCI stamps its
// outgoing PDUs; rxVCI is preinstalled in its driver's cached table.
func newHost(sched *simtime.Scheduler, name string, cfg Config, txVCI, rxVCI osiris.VCI) (*Host, error) {
	frames := cfg.Frames
	if frames == 0 {
		frames = 32768
	}
	h := &Host{Name: name, sched: sched, cost: machine.DecStation5000()}
	if cfg.ZeroContention {
		h.cost.BusContention = 0
	}
	h.Sys = vm.NewSystem(h.cost, frames, &h.meter)
	h.Sys.FaultPlane = cfg.Faults
	h.Reg = domain.NewRegistry(h.Sys)
	h.Mgr = core.NewManager(h.Sys, h.Reg)
	h.Mgr.EmptyLeafInit = aggregate.EmptyLeafImage
	h.Env = xkernel.NewEnv(h.Sys, h.Mgr, h.Reg)
	if cfg.Obs != nil {
		h.Sys.Obs = cfg.Obs
		if name != "A" {
			h.Sys.TraceBase = 100
		}
		cfg.Obs.SetNow(sched.Now)
		h.Mgr.RegisterTraceNames(name + ".")
	}
	h.CPU = simtime.NewResource(sched, name+".cpu")
	h.Bus = simtime.NewResource(sched, name+".bus")

	kernel := h.Reg.Kernel()
	switch cfg.Placement {
	case KernelKernel:
		h.App, h.Net = kernel, kernel
	case UserUser:
		h.App, h.Net = h.Reg.New("app"), kernel
	case UserNetserverUser:
		h.App, h.Net = h.Reg.New("app"), h.Reg.New("netserver")
		if !cfg.NoTextPenalty {
			h.Env.Router.CrossingSurcharge = h.cost.TextDuplicationPenalty
		}
	default:
		return nil, fmt.Errorf("netsim: unknown placement %v", cfg.Placement)
	}
	h.Mgr.AttachDomain(h.App)
	h.Mgr.AttachDomain(h.Net)

	// Optional overload control: tenant classes arbitrating chunk grants
	// between the application data path and the protocol header paths.
	var appClass, protoClass *core.TenantClass
	if cfg.AdmissionBudget > 0 {
		adm := core.NewAdmission(cfg.AdmissionBudget)
		appClass = adm.Class("app", 3)
		protoClass = adm.Class("proto", 1)
		h.Mgr.SetAdmission(adm)
	}

	// Transmit-side data path: app -> (netserver ->) kernel.
	txDoms := dedupDomains(h.App, h.Net, kernel)
	appPath, err := h.Mgr.NewPath("tx-data", cfg.Opts, 16, txDoms...)
	if err != nil {
		return nil, err
	}
	appPath.SetQuota(64)
	appPath.SetTenant(appClass)
	appCtx, err := aggregate.NewCtx(h.Mgr, appPath, cfg.Opts.Integrated)
	if err != nil {
		return nil, err
	}
	ackPath, err := h.Mgr.NewPath("tx-ack", cfg.Opts, 1, txDoms...)
	if err != nil {
		return nil, err
	}
	ackPath.SetQuota(32)
	ackPath.SetTenant(protoClass)
	ackCtx, err := aggregate.NewCtx(h.Mgr, ackPath, cfg.Opts.Integrated)
	if err != nil {
		return nil, err
	}
	// UDP's header/node buffers live in the network-server domain (the
	// paper's user-netserver-user case places only UDP there); IP and the
	// driver always run in the kernel, so fragments never cross a domain
	// boundary individually — only whole messages do.
	udpDoms := dedupDomains(h.Net, kernel, h.App)
	udpPath, err := h.Mgr.NewPath("udp-hdrs", cfg.Opts, 1, udpDoms...)
	if err != nil {
		return nil, err
	}
	udpPath.SetQuota(32)
	udpPath.SetTenant(protoClass)
	udpCtx, err := aggregate.NewCtx(h.Mgr, udpPath, cfg.Opts.Integrated)
	if err != nil {
		return nil, err
	}
	ipDoms := dedupDomains(kernel, h.Net, h.App)
	ipPath, err := h.Mgr.NewPath("ip-hdrs", cfg.Opts, 1, ipDoms...)
	if err != nil {
		return nil, err
	}
	ipPath.SetQuota(32)
	ipPath.SetTenant(protoClass)
	ipCtx, err := aggregate.NewCtx(h.Mgr, ipPath, cfg.Opts.Integrated)
	if err != nil {
		return nil, err
	}

	h.Test = protocols.NewTestProto(h.Env, appCtx)
	h.Ack = protocols.NewTestProto(h.Env, ackCtx)
	h.UDP = protocols.NewUDP(h.Env, udpCtx, dataPort, dataPort)
	h.IP = protocols.NewIP(h.Env, ipCtx, cfg.PDUBytes)

	// Receive-side: wire PDUs hold PDU payload plus protocol headers.
	rxPages := (cfg.PDUBytes+protocols.UDPHeaderBytes+protocols.IPHeaderBytes)/machine.PageSize + 1
	rxDoms := dedupDomains(kernel, h.Net, h.App)
	h.Driver = osiris.NewDriver(h.Env, cfg.Opts, rxDoms, rxPages)
	h.Driver.TxVCI = txVCI
	h.Driver.CPUOffset = func() simtime.Duration { return h.meter.Total }
	if err := h.Driver.AddVCI(rxVCI); err != nil {
		return nil, err
	}

	if cfg.UseRings {
		// Enable the ring data plane before any Connect runs so the
		// cross-domain links ring-attach their domain pairs (the doorbell
		// cost latches the surcharge set by the placement above). The
		// spin-then-block policy runs on the host's live virtual clock.
		h.Env.Router.EnableRings(h.virtualNow)
	}

	dataSess := h.UDP.OpenSession(dataPort, dataPort)
	ackSess := h.UDP.OpenSession(ackPort, ackPort)
	if cfg.UseSWP {
		// test <-> SWP <-> UDP session: the transport provides windowing,
		// ordering, and retransmission over the (possibly lossy) link.
		h.SWP = protocols.NewSWP(h.Env, ackCtx, hostTimers{h})
		h.SWP.Window = cfg.Window
		if h.SWP.Window <= 0 {
			h.SWP.Window = 8
		}
		// Retransmission timeout scaled to the workload: a full window of
		// messages must fit comfortably inside one RTO at link speed
		// (~50 ns/byte at ~160 Mb/s effective), or clean transfers would
		// time out spuriously and spiral.
		h.SWP.RTO = simtime.MS(10) + simtime.Duration(int64(cfg.MsgBytes)*int64(h.SWP.Window)*50)
		if adm := h.Mgr.Admission(); adm != nil {
			// Admission rejections shrink the sender's effective window:
			// overload slows senders instead of thrashing the allocator.
			h.SWP.Backpressure = adm.Pressured
		}
		xkernel.Connect(h.Env, h.Test, h.SWP)
		xkernel.Connect(h.Env, h.SWP, dataSess)
		h.UDP.Bind(dataPort, xkernel.Attach(h.Env, h.SWP, h.UDP.Dom()))
	} else {
		xkernel.Connect(h.Env, h.Test, dataSess)
		h.UDP.Bind(dataPort, xkernel.Attach(h.Env, h.Test, h.UDP.Dom()))
	}
	xkernel.Connect(h.Env, h.Ack, ackSess)
	xkernel.Connect(h.Env, h.UDP, h.IP)
	xkernel.Connect(h.Env, h.IP, h.Driver)
	h.UDP.Bind(ackPort, xkernel.Attach(h.Env, h.Ack, h.UDP.Dom()))
	h.Test.Verify = cfg.Verify
	h.ctxs = []*aggregate.Ctx{appCtx, ackCtx, udpCtx, ipCtx}
	h.cfg = cfg
	return h, nil
}

// virtualNow is the live virtual instant inside a metered task: the event
// clock plus the CPU work the running task has accrued so far. The ring
// spin-then-block policy keys off it.
func (h *Host) virtualNow() simtime.Time {
	return h.sched.Now() + h.meter.Total
}

// Shutdown tears the host's protocol stack down after a run: every
// aggregate arena and the driver's reassembly contexts release their held
// buffer references. After Shutdown (and notice draining) a quiesced host
// must pass Manager.CheckConverged — the chaos harness's leak check.
func (h *Host) Shutdown() error {
	if _, err := h.IP.FlushPartial(); err != nil {
		return err
	}
	for _, c := range h.ctxs {
		if err := c.Close(); err != nil {
			return err
		}
	}
	h.ctxs = nil
	return h.Driver.Close()
}

func dedupDomains(ds ...*domain.Domain) []*domain.Domain {
	var out []*domain.Domain
	seen := map[*domain.Domain]bool{}
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// Exec runs task at event time `ready`, metering its simulated CPU work,
// occupying the CPU, and flushing any PDUs the task queued at the driver
// (each PDU's DMA may begin as soon as the CPU reached the point where the
// stack finished preparing it — fragmentation pipelines with
// transmission). Task errors are returned.
func (h *Host) Exec(ready simtime.Time, task func() error) error {
	h.meter.Total = 0
	if o := h.Sys.Obs; o != nil {
		// While the task runs, the observer's clock advances with the
		// simulated CPU work the task accrues, anchored at its release
		// time — so events, spans and latency histograms inside the task
		// see real durations even though the scheduler clock only moves
		// between scheduler events. Afterwards the scheduler clock is back.
		o.SetNow(func() simtime.Time { return ready + h.meter.Total })
		defer o.SetNow(h.sched.Now)
	}
	err := task()
	d := h.meter.Take()
	end := h.CPU.ExecAt(ready, d, nil)
	start := end - d
	for _, pdu := range h.Driver.TakeTxQueue() {
		h.transmit(pdu, start+pdu.CPUOffset)
	}
	return err
}

// transmit models one PDU's journey: segmentation DMA on the local bus,
// cell serialization on the link, reassembly DMA on the peer's bus
// (overlapped cell by cell with transmission), then a receive interrupt.
// With a fault plane attached, the link may additionally drop, corrupt,
// duplicate, or reorder the PDU (faults.LinkVerdict). The PDU's wire buffer
// goes back to the driver once the link has dropped it or the peer has
// received it for the last time.
func (h *Host) transmit(pdu osiris.TxPDU, dmaReady simtime.Time) {
	peer := h.peer
	h.txCount++
	if h.cfg.DropEvery > 0 {
		// Deterministic pseudo-random loss at rate 1/DropEvery. A strict
		// every-Nth pattern can alias with a message's PDU count so the
		// same fragment is lost on every retransmission; an LCG keeps the
		// run reproducible without that pathology.
		h.lossRng = h.lossRng*6364136223846793005 + 1442695040888963407
		if (h.lossRng>>33)%uint64(h.cfg.DropEvery) == 0 {
			// The link corrupts this PDU: transmit-side bus and link
			// time are spent, but nothing arrives at the peer.
			h.dropped++
			h.Bus.ExecAt(dmaReady, osiris.BusTime(h.cost, len(pdu.Data)), nil)
			h.Driver.Recycle(pdu.Data)
			return
		}
	}
	verdict := h.cfg.Faults.LinkVerdict(h.linkID, dmaReady)
	if verdict != faults.Deliver {
		if o := h.Sys.Obs; o != nil {
			o.Emit(obs.EvLinkFault, obs.NoActor, obs.NoTrack, 0, int64(verdict))
		}
	}
	if verdict == faults.Drop {
		// Loss or partition: transmit-side bus and link time are spent,
		// nothing arrives. SWP sees a missing ack and backs off.
		h.dropped++
		h.Bus.ExecAt(dmaReady, osiris.BusTime(h.cost, len(pdu.Data)), nil)
		h.Driver.Recycle(pdu.Data)
		return
	}
	// The adapter computes an AAL5-trailer-style CRC over the wire bytes
	// during transmit DMA, in hardware, so no CPU cost is charged. Only a
	// fault-plane link can damage bytes, and only there does the peer
	// adapter check it (ReceiveChecked), so only there is it computed.
	var crc uint32
	if h.cfg.Faults != nil {
		crc = crc32.ChecksumIEEE(pdu.Data)
	}
	if verdict == faults.Corrupt && len(pdu.Data) > 0 {
		// Flip a payload byte in the wire buffer itself: nothing above
		// the driver holds wire bytes, and a retransmission gathers
		// afresh from fbufs. The peer adapter's CRC check discards the
		// damaged frame, so corruption degenerates to loss after full
		// link and bus costs.
		pdu.Data[len(pdu.Data)/2] ^= 0xff
	}
	busTime := osiris.BusTime(h.cost, len(pdu.Data))
	cellTime := h.cost.BusCellDMA + h.cost.BusContention
	txEnd := h.Bus.ExecAt(dmaReady, busTime, nil)
	txStart := txEnd - busTime
	// The first cell lands at the peer one cell-DMA plus link
	// serialization plus propagation after transmission starts; the
	// peer's bus then streams the remaining cells in.
	firstArrival := txStart + cellTime + h.cost.LinkCell + h.cost.LinkPropagation
	rxEnd := peer.Bus.ExecAt(firstArrival, busTime, nil)
	if o := h.Sys.Obs; o != nil {
		// The PDU's wire occupancy — segmentation DMA through reassembly
		// completion — charged to the trace stamped on it at Push time.
		o.SpanRecord(pdu.Trace, span.StageLink, "net", span.NoActor, txStart, rxEnd, int64(len(pdu.Data)))
	}
	deliverAt := rxEnd
	if verdict == faults.Reorder {
		// The cells landed, but the completion interrupt is deferred past
		// a couple of subsequent PDU times, so later PDUs overtake this
		// one at the transport. The delay is a pure function of PDU size,
		// keeping the schedule seed-deterministic.
		deliverAt += 2*busTime + simtime.MS(1)
	}
	h.deliverPDU(&pdu, crc, deliverAt, verdict != faults.Duplicate)
	if verdict == faults.Duplicate {
		// The second copy occupies the peer bus again and arrives just
		// behind the first; SWP's duplicate suppression absorbs it.
		rxEnd2 := peer.Bus.ExecAt(rxEnd, busTime, nil)
		h.deliverPDU(&pdu, crc, rxEnd2, true)
	}
}

// deliverPDU schedules the peer's receive interrupt for pdu at time at.
// last marks the PDU's final delivery, after which its wire buffer goes
// back to this host's driver.
func (h *Host) deliverPDU(pdu *osiris.TxPDU, crc uint32, at simtime.Time, last bool) {
	var r *rxEvent
	if n := len(h.rxFree); n > 0 {
		r, h.rxFree = h.rxFree[n-1], h.rxFree[:n-1]
	} else {
		r = &rxEvent{h: h}
		r.fire, r.task = r.run, r.receive
	}
	r.pdu, r.crc, r.at, r.last = *pdu, crc, at, last
	h.sched.At(at, r.fire)
}

// rxEvent is one scheduled receive interrupt of a PDU host h sent. A host
// keeps its idle records for reuse, and each record's callbacks are bound
// once, so a warm PDU's receive schedules without allocating.
type rxEvent struct {
	h    *Host
	pdu  osiris.TxPDU
	crc  uint32
	at   simtime.Time
	last bool
	fire func()       // r.run
	task func() error // r.receive
}

// run is the receive interrupt: a task on the peer's CPU.
func (r *rxEvent) run() {
	h := r.h
	_ = h.peer.Exec(r.at, r.task)
	if r.last {
		h.Driver.Recycle(r.pdu.Data)
	}
	r.pdu.Data = nil
	h.rxFree = append(h.rxFree, r)
}

// receive hands the PDU to the peer's driver. Fault-plane runs route
// through the adapter's CRC check so corrupted frames are discarded; plain
// runs, whose links cannot corrupt, take the CRC-oblivious path. The PDU's
// trace id rides along so the peer's receive spans land in the same trace
// the sender opened.
func (r *rxEvent) receive() error {
	peer := r.h.peer
	if o := peer.Sys.Obs; o != nil {
		o.ResumeTrace(r.pdu.Trace)
	}
	if r.h.cfg.Faults != nil {
		return peer.Driver.ReceiveChecked(r.pdu.VCI, r.pdu.Data, r.crc)
	}
	return peer.Driver.Receive(r.pdu.VCI, r.pdu.Data)
}

// endRun drops what the host kept for reuse within a run: its driver's
// spare wire buffers and its idle receive records. Once the scheduler has
// drained, no PDU is in flight, so nothing of the run's traffic outlives
// it.
func (h *Host) endRun() {
	h.Driver.ReleaseSpares()
	h.rxFree = nil
}

// E2E is one end-to-end experiment run.
type E2E struct {
	Sched *simtime.Scheduler
	Cfg   Config
	A, B  *Host // A sends data, B sinks it and returns acks

	sent, acked int
	window      int
	delivered   int
	firstAt     simtime.Time
	lastAt      simtime.Time
	err         error
}

// NewE2E builds the two hosts and the window controller.
func NewE2E(cfg Config) (*E2E, error) {
	if cfg.Count < 2 {
		cfg.Count = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	sched := simtime.NewScheduler()
	a, err := newHost(sched, "A", cfg, dataVCI, ackVCI)
	if err != nil {
		return nil, err
	}
	b, err := newHost(sched, "B", cfg, ackVCI, dataVCI)
	if err != nil {
		return nil, err
	}
	a.peer, b.peer = b, a
	a.linkID, b.linkID = LinkAB, LinkBA
	// Acknowledgements trace as their own transfer class so the reverse
	// path's latency does not pollute the data path's distribution.
	a.Ack.Label, b.Ack.Label = "ack", "ack"
	e := &E2E{Sched: sched, Cfg: cfg, A: a, B: b, window: cfg.Window}

	// Receiver: consume the message, record delivery, return an ack (the
	// SWP transport acknowledges on its own).
	b.Test.OnDeliver = func(n int) {
		e.delivered++
		now := sched.Now()
		if e.delivered == 1 {
			e.firstAt = now
		}
		e.lastAt = now
		if cfg.UseSWP {
			return
		}
		if err := b.Ack.SendUntouched(64); err != nil && e.err == nil {
			e.err = err
		}
	}
	// Sender: each ack opens the window (harness mode only).
	a.Ack.OnDeliver = func(int) {
		e.acked++
		e.window++
		e.pump()
	}
	if cfg.UseSWP {
		// SWP does its own windowing; hand it the whole workload.
		e.window = cfg.Count
	}
	return e, nil
}

// pump sends while window credit remains. It runs inside a host task (or
// the initial task), so its costs meter into the surrounding work.
func (e *E2E) pump() {
	for e.window > 0 && e.sent < e.Cfg.Count {
		e.window--
		e.sent++
		var err error
		if e.Cfg.Verify {
			err = e.A.Test.Send(uint64(e.sent-1), e.Cfg.MsgBytes)
		} else {
			err = e.A.Test.SendUntouched(e.Cfg.MsgBytes)
		}
		if err != nil && e.err == nil {
			e.err = err
			return
		}
	}
}

// Run drives the experiment to completion and reports measurements.
func (e *E2E) Run() (Result, error) {
	if err := e.A.Exec(0, func() error { e.pump(); return nil }); err != nil {
		return Result{}, err
	}
	e.Sched.Run(0)
	e.A.endRun()
	e.B.endRun()
	if e.err != nil {
		return Result{}, e.err
	}
	if e.A.SWP != nil && e.A.SWP.Err != nil {
		return Result{}, e.A.SWP.Err
	}
	if e.delivered < e.Cfg.Count {
		return Result{}, fmt.Errorf("netsim: only %d of %d messages delivered", e.delivered, e.Cfg.Count)
	}
	res := Result{
		Elapsed:   e.lastAt,
		Delivered: e.delivered,
		TxCPU:     e.A.CPU.Utilization(),
		RxCPU:     e.B.CPU.Utilization(),
	}
	if e.delivered >= 2 && e.lastAt > e.firstAt {
		bytes := int64(e.Cfg.MsgBytes) * int64(e.delivered-1)
		res.ThroughputMbps = simtime.Mbps(bytes, e.lastAt-e.firstAt)
	}
	return res, nil
}

// Run is the one-call entry point used by the benchmark harness.
func Run(cfg Config) (Result, error) {
	e, err := NewE2E(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
