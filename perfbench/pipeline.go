package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"fbufs"
	"fbufs/internal/aggregate"
	"fbufs/internal/domain"
	"fbufs/internal/ipc"
	"fbufs/internal/vm"
)

const (
	pipeHdr    = 8    // producer header bytes
	pipeFrag   = 4096 // filter fragment size (what IP does per PDU)
	pipeWarm   = 2048 // iterations before the steady-state window opens
	pipeFixed  = 8192 // iterations in the modelled-time and counter window
	pipeFrames = 8192 // physical frames of the host
	pipeJitter = 4096 // payload offsets per message, so consecutive messages differ
)

// pipeSize is the seeded message size: 64 KB at the default seed, and
// always 16 pages.
func pipeSize(seed int64) int { return 64<<10 - 64*bandIndex(seed, 8) }

// pipeInputs are the seeded inputs of one pipeline run.
type pipeInputs struct {
	size    int
	payload []byte // size+pipeJitter seeded bytes; message i starts at a seeded offset
	rng     *rand.Rand
}

func newPipeInputs(seed int64) *pipeInputs {
	in := &pipeInputs{size: pipeSize(seed), rng: rand.New(rand.NewSource(seed))}
	in.payload = make([]byte, in.size+pipeJitter)
	in.rng.Read(in.payload)
	return in
}

// pipeRig is one host with producer, filter and consumer domains.
type pipeRig struct {
	sys              *fbufs.System
	prod, filt, cons *fbufs.Domain
	src, hdr, edit   *fbufs.Ctx // producer data and header contexts, filter edit context
	filtPort         ipc.PortID
	consPort         ipc.PortID
	opened           *fbufs.Msg // the view the last IPC handler opened
	tr               *tracer

	hdrBuf  [pipeHdr]byte
	readBuf []byte
}

// newPipeRig builds the host: the rig set-up that setup_s times.
func newPipeRig(size int) (*pipeRig, error) {
	sys := fbufs.New(pipeFrames)
	p := &pipeRig{
		sys:     sys,
		prod:    sys.NewDomain("producer"),
		filt:    sys.NewDomain("filter"),
		cons:    sys.NewDomain("consumer"),
		readBuf: make([]byte, size),
	}
	dataPages := (size + fbufs.PageSize - 1) / fbufs.PageSize
	for _, c := range []struct {
		ctx   **fbufs.Ctx
		name  string
		pages int
		doms  []*fbufs.Domain
	}{
		{&p.src, "data", dataPages, []*fbufs.Domain{p.prod, p.filt, p.cons}},
		{&p.hdr, "hdrs", 1, []*fbufs.Domain{p.prod, p.filt, p.cons}},
		{&p.edit, "edits", 1, []*fbufs.Domain{p.filt, p.cons}},
	} {
		path, err := sys.NewPath(c.name, fbufs.CachedVolatile(), c.pages, c.doms...)
		if err != nil {
			return nil, err
		}
		path.SetQuota(32)
		if *c.ctx, err = sys.NewCtx(path); err != nil {
			return nil, err
		}
	}
	p.filtPort = sys.Env.Router.Register(p.filt, p.open(p.filt))
	p.consPort = sys.Env.Router.Register(p.cons, p.open(p.cons))
	return p, nil
}

// open is the IPC handler of a receiving domain: it rebuilds the message
// from the DAG root the call carries.
func (p *pipeRig) open(d *fbufs.Domain) ipc.Handler {
	return func(_ *domain.Domain, msg *ipc.Message) (*ipc.Message, error) {
		p.tr.begin(callOpen)
		m, err := aggregate.Open(p.sys.Fbufs, d, msg.Body.(vm.VA))
		p.tr.end()
		p.opened = m
		return nil, err
	}
}

// send transfers m to another domain and calls its port, returning the
// receiver's view.
func (p *pipeRig) send(m *fbufs.Msg, from, to *fbufs.Domain, port ipc.PortID) (*fbufs.Msg, error) {
	p.tr.begin(callTransfer)
	err := m.Transfer(from, to)
	p.tr.end()
	if err != nil {
		return nil, err
	}
	p.tr.begin(callIPC)
	_, err = p.sys.Env.Router.Call(from, port, &ipc.Message{Descriptors: m.NumFbufs(), Body: m.RootVA()})
	p.tr.end()
	return p.opened, err
}

// free releases d's references to m.
func (p *pipeRig) free(m *fbufs.Msg, d *fbufs.Domain) error {
	p.tr.begin(callFree)
	defer p.tr.end()
	return m.Free(d)
}

// iterate moves message i through the pipeline. It reports whether the
// consumer read back exactly the bytes the producer wrote.
func (p *pipeRig) iterate(i int, in *pipeInputs) (bool, error) {
	off := in.rng.Intn(pipeJitter)
	first := 1 + in.rng.Intn(pipeFrag) // seeded fragment boundaries
	payload := in.payload[off : off+in.size]
	binary.LittleEndian.PutUint64(p.hdrBuf[:], uint64(i))
	p.tr.beginMsg(i)

	// Producer: build the message and its header.
	p.tr.begin(callBuild)
	m, err := p.src.NewData(payload)
	if err == nil {
		m, err = p.hdr.Push(m, p.hdrBuf[:])
	}
	p.tr.end()
	if err != nil {
		return false, fmt.Errorf("build: %w", err)
	}
	fm, err := p.send(m, p.prod, p.filt, p.filtPort)
	if err != nil {
		return false, fmt.Errorf("producer->filter: %w", err)
	}
	if err := p.free(m, p.prod); err != nil {
		return false, err
	}

	// Filter: pop the header, fragment and reassemble in order.
	p.tr.begin(callEdit)
	j, hdrOK, err := p.reassemble(fm, first)
	p.tr.end()
	if err != nil {
		return false, fmt.Errorf("edit: %w", err)
	}
	cm, err := p.send(j, p.filt, p.cons, p.consPort)
	if err != nil {
		return false, fmt.Errorf("filter->consumer: %w", err)
	}
	if err := p.free(j, p.filt); err != nil {
		return false, err
	}

	// Consumer: secure, read every byte, free.
	p.tr.begin(callSecure)
	err = cm.Secure(p.cons)
	p.tr.end()
	if err != nil {
		return false, fmt.Errorf("secure: %w", err)
	}
	ok := cm.Len() == len(p.readBuf)
	if ok {
		p.tr.begin(callRead)
		err = cm.Read(p.cons, 0, p.readBuf)
		p.tr.end()
		if err != nil {
			return false, fmt.Errorf("read: %w", err)
		}
		ok = bytes.Equal(p.readBuf, payload)
	}
	if err := p.free(cm, p.cons); err != nil {
		return false, err
	}

	p.tr.begin(callNotice)
	p.deliverNotices()
	p.tr.end()
	p.tr.endMsg()
	return ok && hdrOK, nil
}

// reassemble pops the header, splits the body into fragments (the first
// `first` bytes long, the rest pipeFrag) and joins them back in order.
func (p *pipeRig) reassemble(fm *fbufs.Msg, first int) (*fbufs.Msg, bool, error) {
	hdr, rest, err := p.edit.Pop(fm, pipeHdr)
	if err != nil {
		return nil, false, err
	}
	hdrOK := bytes.Equal(hdr, p.hdrBuf[:])
	var out, frag *fbufs.Msg
	for n := first; rest.Len() > n; n = pipeFrag {
		if frag, rest, err = p.edit.Split(rest, n); err != nil {
			return nil, false, err
		}
		if out, err = p.join(out, frag); err != nil {
			return nil, false, err
		}
	}
	out, err = p.join(out, rest)
	return out, hdrOK, err
}

// join appends frag to out, or starts out with it.
func (p *pipeRig) join(out, frag *fbufs.Msg) (*fbufs.Msg, error) {
	if out == nil {
		return frag, nil
	}
	return p.edit.Join(out, frag)
}

// deliverNotices delivers the deallocation notices pending between every
// pair of domains, so every buffer recycles.
func (p *pipeRig) deliverNotices() {
	doms := [...]*fbufs.Domain{p.prod, p.filt, p.cons}
	for _, a := range doms {
		for _, b := range doms {
			if a != b {
				p.sys.Fbufs.DeliverNotices(a, b)
			}
		}
	}
}

// close tears the rig down and requires it to converge.
func (p *pipeRig) close() error {
	for _, c := range []*fbufs.Ctx{p.src, p.hdr, p.edit} {
		if err := c.Close(); err != nil {
			return err
		}
	}
	p.deliverNotices()
	if err := p.sys.Fbufs.CheckInvariants(); err != nil {
		return err
	}
	return p.sys.Fbufs.CheckConverged()
}

func (p *pipeRig) counters(delivered uint64) counters {
	c := counters{rxBytes: delivered, at: p.sys.Now(), ipcCalls: p.sys.Env.Router.Calls}
	addStats(&c.core, p.sys.Fbufs.Snapshot())
	_, c.tlbMisses = p.sys.VM.TLB.Stats()
	return c
}

func runPipeline(o options, r *report) error {
	in := newPipeInputs(o.seed)
	r.note("message bytes %d", in.size)
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		setup, err := medianSetup(func() error {
			_, err := newPipeRig(in.size)
			return err
		})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		run, err := timedPipe(in, budget, false, r)
		if err != nil {
			return err
		}
		reportEndToEnd(r, setup, run, pipeFixed)
		return nil
	}
	plain, err := timedPipe(in, budget/2, false, r)
	if err != nil {
		return err
	}
	traced, err := timedPipe(newPipeInputs(o.seed), budget/2, true, r)
	if err != nil || traced.tr == nil {
		return err
	}
	reportPipeLayers(r, traced, plain.host)
	return writeSpans(o, traced.tr.kept)
}

// timedPipe runs the pipeline loop until the steady-state window closes,
// recording spans when traced.
func timedPipe(in *pipeInputs, budget time.Duration, traced bool, r *report) (runResult, error) {
	p, err := newPipeRig(in.size)
	if err != nil {
		return runResult{}, err
	}
	var run runResult
	if traced {
		p.tr = newTracer(p.sys.Now)
	}
	tr := p.tr
	var delivered uint64
	w := newWindow(pipeWarm, pipeFixed, 1, budget)
	bad := 0
	for !w.closed {
		i := w.n + 1
		if tr != nil {
			tr.accumulate = i > pipeWarm && i <= pipeWarm+pipeFixed
		}
		ok, err := p.iterate(i, in)
		if err != nil {
			r.count(i, 1)
			r.fail(0, "pipeline message %d: %v", i, err)
			return runResult{}, nil
		}
		if ok {
			delivered += uint64(in.size)
		} else {
			bad++
		}
		switch i {
		case pipeWarm:
			run.c0 = p.counters(delivered)
		case pipeWarm + pipeFixed:
			run.c1 = p.counters(delivered)
		}
		w.tick()
	}
	r.count(w.n, bad)
	if bad > 0 {
		r.fail(0, "pipeline: %d messages read back wrong", bad)
	}
	if run.host, err = w.stats(); err != nil {
		r.fail(0, "timed run: %v", err)
	}
	run.simMbps = simMbps(run.c1.sub(run.c0))
	run.heapMB = liveHeapMB()
	runtime.KeepAlive(p)
	if err := p.close(); err != nil {
		r.fail(w.n, "pipeline teardown: %v", err)
	}
	run.tr = tr
	return run, nil
}

// hostRows are the per-layer host-time and heap metrics, each folded from
// one call's spans in pipeline.
var hostRows = []struct {
	name string
	call call
}{
	{"aggregate.build_us", callBuild}, {"aggregate.build_KB", callBuild},
	{"aggregate.edit_us", callEdit}, {"aggregate.edit_KB", callEdit},
	{"aggregate.open_us", callOpen}, {"aggregate.open_KB", callOpen},
	{"core.transfer_us", callTransfer}, {"core.free_us", callFree},
	{"core.notice_us", callNotice}, {"core.secure_us", callSecure},
	{"ipc.call_us", callIPC}, {"vm.read_us", callRead},
}

func unitOf(row string) string {
	if strings.HasSuffix(row, "_KB") {
		return "KB"
	}
	return "us"
}

// reportPipeLayers records the per-layer metrics of a traced pipeline run.
func reportPipeLayers(r *report, t runResult, plain hostStats) {
	tr := t.tr
	n := float64(tr.msgs)
	us := func(c call) float64 { return float64(tr.selfHost[c]) / n / 1e3 }
	for _, row := range hostRows {
		v := us(row.call)
		if unitOf(row.name) == "KB" {
			v = float64(tr.heapDelta[row.call].bytes) / n / 1024
		}
		r.set(row.name, v, unitOf(row.name), tr.msgs)
	}
	var calls, total float64
	for c := call(0); c < numCalls; c++ {
		total += us(c)
		if c != callMsg {
			calls += us(c)
		}
	}
	total += float64(tr.overhead) / n / 1e3
	r.note("traced host time per message %.3f us: calls' self times %.3f us (%.1f%%), tracer heap reads %.3f us",
		total, calls, 100*calls/total, float64(tr.overhead)/n/1e3)

	sim := func(cs ...call) float64 {
		var s int64
		for _, c := range cs {
			s += tr.selfSim[c]
		}
		return float64(s) / n / 1e3
	}
	rows := map[string]float64{
		"ipc.sim_us":       sim(callIPC),
		"core.sim_us":      sim(callTransfer, callFree, callNotice, callSecure),
		"aggregate.sim_us": sim(callBuild, callEdit, callOpen),
		"vm.sim_us":        sim(callRead),
	}
	// The clock's advance over the window, read outside every span, is
	// what the rows must add up to.
	d := t.c1.sub(t.c0)
	perMsg, sum := float64(d.at)/pipeFixed/1e3, 0.0
	for _, name := range simRows {
		r.set(name, rows[name], "us", tr.msgs)
		sum += rows[name]
	}
	r.note("modelled time per message %.3f us, module rows sum to %.3f us", perMsg, sum)
	if math.Abs(sum-perMsg) > 1e-6*perMsg {
		r.fail(0, "module rows sum to %.6f us, modelled time is %.6f us", sum, perMsg)
	}
	reportCounters(r, d, pipeFixed)
	r.set("obs.trace_overhead_pct", 100*(plain.msgsPerSec/t.host.msgsPerSec-1), "%", t.host.poolMsgs)
}
