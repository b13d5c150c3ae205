package xkernel

import (
	"bytes"
	"fmt"
	"testing"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

type rig struct {
	clk *simtime.Clock
	sys *vm.System
	reg *domain.Registry
	mgr *core.Manager
	env *Env
}

func newRig(t testing.TB) *rig {
	t.Helper()
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 8192, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	mgr.EmptyLeafInit = aggregate.EmptyLeafImage
	env := NewEnv(sys, mgr, reg)
	return &rig{clk: clk, sys: sys, reg: reg, mgr: mgr, env: env}
}

// capture is a bottom layer recording pushed messages.
type capture struct {
	Base
	dom  *domain.Domain
	data [][]byte
}

func newCapture(name string, d *domain.Domain) *capture {
	return &capture{Base: NewBase(name, d), dom: d}
}

func (c *capture) Push(m *aggregate.Msg) error {
	b, err := m.ReadAll(c.dom)
	if err != nil {
		return err
	}
	c.data = append(c.data, b)
	return m.Free(c.dom)
}

func (c *capture) Deliver(m *aggregate.Msg) error { return fmt.Errorf("capture is a bottom layer") }

// source is a top layer recording delivered messages.
type source struct {
	Base
	dom  *domain.Domain
	data [][]byte
}

func newSource(name string, d *domain.Domain) *source {
	return &source{Base: NewBase(name, d), dom: d}
}

func (s *source) Push(m *aggregate.Msg) error { return fmt.Errorf("source is a top layer") }
func (s *source) Deliver(m *aggregate.Msg) error {
	b, err := m.ReadAll(s.dom)
	if err != nil {
		return err
	}
	s.data = append(s.data, b)
	return m.Free(s.dom)
}

func (r *rig) ctxFor(t *testing.T, doms ...*domain.Domain) *aggregate.Ctx {
	t.Helper()
	p, err := r.mgr.NewPath("t", core.CachedVolatile(), 2, doms...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := aggregate.NewCtx(r.mgr, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConnectSameDomainIsDirect(t *testing.T) {
	r := newRig(t)
	d := r.reg.New("mono")
	r.mgr.AttachDomain(d)
	top := newSource("top", d)
	bot := newCapture("bot", d)
	Connect(r.env, top, bot)
	if top.Below() != Layer(bot) || bot.Above() != Layer(top) {
		t.Fatal("direct wiring expected")
	}
	ctx := r.ctxFor(t, d)
	m, _ := ctx.NewData([]byte("direct"))
	start := r.clk.Now()
	if err := top.PushBelow(m); err != nil {
		t.Fatal(err)
	}
	if r.env.Router.Calls != 0 {
		t.Fatal("same-domain push used IPC")
	}
	if len(bot.data) != 1 || string(bot.data[0]) != "direct" {
		t.Fatalf("captured %q", bot.data)
	}
	_ = start
}

func TestConnectCrossDomainProxies(t *testing.T) {
	r := newRig(t)
	up := r.reg.New("upper")
	lo := r.reg.New("lower")
	for _, d := range []*domain.Domain{up, lo} {
		r.mgr.AttachDomain(d)
	}
	top := newSource("top", up)
	bot := newCapture("bot", lo)
	Connect(r.env, top, bot)

	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	ctx := r.ctxFor(t, up, lo)
	m, err := ctx.NewData(payload)
	if err != nil {
		t.Fatal(err)
	}
	start := r.clk.Now()
	if err := top.PushBelow(m); err != nil {
		t.Fatal(err)
	}
	if r.env.Router.Calls != 1 {
		t.Fatalf("IPC calls %d", r.env.Router.Calls)
	}
	if elapsed := r.clk.Now() - start; elapsed < r.sys.Cost.IPCLatency {
		t.Fatalf("crossing charged %v", elapsed)
	}
	if len(bot.data) != 1 || !bytes.Equal(bot.data[0], payload) {
		t.Fatal("payload corrupted crossing domains")
	}
	// Both sides freed their references.
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverCrossesUpward(t *testing.T) {
	r := newRig(t)
	up := r.reg.New("upper")
	lo := r.reg.New("lower")
	top := newSource("top", up)
	bot := newCapture("bot", lo)
	Connect(r.env, top, bot)
	ctx := r.ctxFor(t, lo, up)
	m, _ := ctx.NewData([]byte("incoming pdu"))
	if err := bot.DeliverAbove(m); err != nil {
		t.Fatal(err)
	}
	if len(top.data) != 1 || string(top.data[0]) != "incoming pdu" {
		t.Fatalf("delivered %q", top.data)
	}
}

func TestAttachBuildsUpwardProxy(t *testing.T) {
	r := newRig(t)
	up := r.reg.New("upper")
	lo := r.reg.New("lower")
	r.mgr.AttachDomain(lo)
	top := newSource("top", up)
	handle := Attach(r.env, top, lo)
	if handle == Layer(top) {
		t.Fatal("cross-domain Attach returned the layer itself")
	}
	ctx := r.ctxFor(t, lo, up)
	m, _ := ctx.NewData([]byte("demuxed"))
	if err := handle.Deliver(m); err != nil {
		t.Fatal(err)
	}
	if len(top.data) != 1 || string(top.data[0]) != "demuxed" {
		t.Fatalf("delivered %q", top.data)
	}
	// Same-domain Attach is the identity.
	if Attach(r.env, top, up) != Layer(top) {
		t.Fatal("same-domain Attach should return the layer")
	}
}

func TestIntegratedCrossingSendsSingleDescriptor(t *testing.T) {
	r := newRig(t)
	up := r.reg.New("upper")
	lo := r.reg.New("lower")
	top := newSource("top", up)
	bot := newCapture("bot", lo)
	Connect(r.env, top, bot)
	ctx := r.ctxFor(t, up, lo) // integrated
	// Multi-fbuf message (2-page fbufs, 20KB data = 3 data fbufs).
	m, err := ctx.NewData(make([]byte, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFbufs() != 1 {
		t.Fatalf("integrated descriptor count %d", m.NumFbufs())
	}
	if err := top.PushBelow(m); err != nil {
		t.Fatal(err)
	}
}

func TestBaseUnwired(t *testing.T) {
	b := NewBase("lonely", nil)
	if err := b.PushBelow(nil); err == nil {
		t.Fatal("push with no below")
	}
	if err := b.DeliverAbove(nil); err == nil {
		t.Fatal("deliver with no above")
	}
	if b.Name() != "lonely" {
		t.Fatal("name")
	}
}

func TestProbeExclusiveAccounting(t *testing.T) {
	r := newRig(t)
	d := r.reg.New("mono")
	r.mgr.AttachDomain(d)

	// A three-layer chain where each layer burns a known cost before
	// forwarding: exclusive attribution must recover exactly those costs.
	burn := func(us int64) { r.sys.Sink().Charge(simtime.US(us)) }
	top := &costLayer{Base: NewBase("top", d), burnPush: func() { burn(10) }}
	mid := &costLayer{Base: NewBase("mid", d), burnPush: func() { burn(20) }}
	bot := &costLayer{Base: NewBase("bot", d), burnPush: func() { burn(40) }}

	ps := NewProbeSet(func() simtime.Time { return r.clk.Now() })
	pt, pm, pb := ps.Wrap(top), ps.Wrap(mid), ps.Wrap(bot)
	Connect(r.env, pt, pm)
	Connect(r.env, pm, pb)

	ctx := r.ctxFor(t, d)
	m, _ := ctx.NewData([]byte("x"))
	if err := pt.Push(m); err != nil {
		t.Fatal(err)
	}
	if pt.PushTime != simtime.US(10) || pm.PushTime != simtime.US(20) || pb.PushTime != simtime.US(40) {
		t.Fatalf("exclusive push times %v/%v/%v, want 10/20/40us",
			pt.PushTime, pm.PushTime, pb.PushTime)
	}
	if pt.Pushes != 1 || pm.Pushes != 1 || pb.Pushes != 1 {
		t.Fatal("push counts wrong")
	}

	var buf bytes.Buffer
	if err := ps.Report(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"top@mono", "mid@mono", "bot@mono", "40.000us"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
	ps.Reset()
	if pt.PushTime != 0 || pt.Pushes != 0 {
		t.Fatal("reset did not clear")
	}
}

// costLayer burns simulated time then forwards (or frees at the bottom).
type costLayer struct {
	Base
	burnPush func()
}

func (c *costLayer) Push(m *aggregate.Msg) error {
	c.burnPush()
	if c.Below() == nil {
		return m.Free(c.Dom())
	}
	return c.PushBelow(m)
}

func (c *costLayer) Deliver(m *aggregate.Msg) error {
	if c.Above() == nil {
		return m.Free(c.Dom())
	}
	return c.DeliverAbove(m)
}

func TestProbeDirectionChange(t *testing.T) {
	// A bottom layer whose Push turns the message around (loopback
	// style): the child's Deliver time must be subtracted from the
	// parent's *Push* figure, never producing negatives.
	r := newRig(t)
	d := r.reg.New("mono")
	r.mgr.AttachDomain(d)
	sinkCost := func() { r.sys.Sink().Charge(simtime.US(30)) }
	sink := &costLayer{Base: NewBase("sink", d), burnPush: nil}
	turn := &turnLayer{Base: NewBase("turn", d), cost: func() { r.sys.Sink().Charge(simtime.US(5)) }}
	_ = sinkCost

	ps := NewProbeSet(func() simtime.Time { return r.clk.Now() })
	psink, pturn := ps.Wrap(sink), ps.Wrap(turn)
	Connect(r.env, psink, pturn)

	ctx := r.ctxFor(t, d)
	m, _ := ctx.NewData([]byte("y"))
	if err := pturn.Push(m); err != nil {
		t.Fatal(err)
	}
	if pturn.PushTime != simtime.US(5) {
		t.Fatalf("turn push %v, want 5us", pturn.PushTime)
	}
	if pturn.DeliverTime < 0 || psink.DeliverTime < 0 {
		t.Fatalf("negative exclusive time: turn=%v sink=%v",
			pturn.DeliverTime, psink.DeliverTime)
	}
}

// turnLayer charges then bounces the message back up, like the loopback.
type turnLayer struct {
	Base
	cost func()
}

func (l *turnLayer) Push(m *aggregate.Msg) error {
	l.cost()
	return l.DeliverAbove(m)
}
func (l *turnLayer) Deliver(m *aggregate.Msg) error { return m.Free(l.Dom()) }
