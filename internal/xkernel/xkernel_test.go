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
