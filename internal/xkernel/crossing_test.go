package xkernel

import (
	"bytes"
	"slices"
	"testing"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/simtime"
)

// sink is a bottom layer that frees what it is pushed inside the call, as
// every netsim layer does, so the sender's Free is the last and recycles
// the fbufs without a notice.
type sink struct {
	Base
	pushes int
}

func (s *sink) Push(m *aggregate.Msg) error {
	s.pushes++
	return m.Free(s.Dom())
}

func (s *sink) Deliver(m *aggregate.Msg) error { return m.Free(s.Dom()) }

// crossingRig wires a source in domain up above a sink in domain lo, on
// the ring plane when ring is set and through legacy IPC otherwise.
func crossingRig(t testing.TB, ring bool) (*rig, *source, *sink, *aggregate.Ctx) {
	t.Helper()
	r := newRig(t)
	if ring {
		r.env.Router.EnableRings(r.clk.Now)
	}
	up, lo := r.reg.New("upper"), r.reg.New("lower")
	top := newSource("top", up)
	bot := &sink{Base: NewBase("bot", lo)}
	Connect(r.env, top, bot)
	p, err := r.mgr.NewPath("t", core.CachedVolatile(), 1, up, lo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := aggregate.NewCtx(r.mgr, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return r, top, bot, ctx
}

// TestCrossingAllocs: a warm 64-byte integrated crossing through a stub
// allocates nothing, on the ring plane and through legacy IPC alike: the
// proxy opens the receiver's view in a slot of its receiving domain's Ctx,
// and the sink's Free sends the slot back there.
func TestCrossingAllocs(t *testing.T) {
	for _, ring := range []bool{false, true} {
		r, top, bot, ctx := crossingRig(t, ring)
		if r.mgr.SanitizerEnabled() {
			t.Skip("fbsan allocates by design")
		}
		data := make([]byte, 64)
		hop := func() {
			m, err := ctx.NewData(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := top.PushBelow(m); err != nil {
				t.Fatal(err)
			}
		}
		hop()
		if n := testing.AllocsPerRun(100, hop); n != 0 {
			t.Errorf("ring=%v: NewData and one crossing: %v allocs, want 0", ring, n)
		}
		if bot.pushes != 102 {
			t.Errorf("ring=%v: sink saw %d pushes, want 102", ring, bot.pushes)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// keeper is a bottom layer that checks what a private-mode crossing hands
// it and keeps the view.
type keeper struct {
	Base
	t     *testing.T
	stub  *stub
	sent  *aggregate.Msg
	want  []byte
	views []*aggregate.Msg
}

func (k *keeper) Push(m *aggregate.Msg) error {
	if got, want := k.stub.msg.Descriptors, len(k.sent.Fbufs()); got != want {
		k.t.Errorf("call carries %d descriptors, want %d", got, want)
	}
	if !slices.Equal(m.Fbufs(), k.sent.Fbufs()) {
		k.t.Errorf("view holds %d fbufs, sender sent %d", len(m.Fbufs()), len(k.sent.Fbufs()))
	}
	for _, f := range m.Fbufs() {
		if !f.HeldBy(k.Dom()) || f.Refs() != 2 {
			k.t.Errorf("fbuf %#x: held by receiver %v, refs %d, want the sender's and the transferred one",
				uint64(f.Base), f.HeldBy(k.Dom()), f.Refs())
		}
	}
	if b, err := m.ReadAll(k.Dom()); err != nil || !bytes.Equal(b, k.want) {
		k.t.Errorf("view reads %d bytes (err %v), want the %d sent", len(b), err, len(k.want))
	}
	k.views = append(k.views, m)
	return nil
}

func (k *keeper) Deliver(m *aggregate.Msg) error { return m.Free(k.Dom()) }

// TestPrivateCrossing pushes a private-mode message through a stub pair:
// the call marshals one descriptor per fbuf, the receiver's view holds
// exactly the transferred references, and the sender holds nothing after
// the call.
func TestPrivateCrossing(t *testing.T) {
	r := newRig(t)
	up, lo := r.reg.New("upper"), r.reg.New("lower")
	top := newSource("top", up)
	k := &keeper{Base: NewBase("bot", lo), t: t}
	Connect(r.env, top, k)
	k.stub = top.Below().(*stub)
	p, err := r.mgr.NewPath("t", core.CachedVolatile(), 2, up, lo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := aggregate.NewCtx(r.mgr, p, false)
	if err != nil {
		t.Fatal(err)
	}
	k.want = make([]byte, 20000) // three 8 KB fbufs
	for i := range k.want {
		k.want[i] = byte(i * 7)
	}
	m, err := ctx.NewData(k.want)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = ctx.Push(m, []byte("hdr")); err != nil {
		t.Fatal(err)
	}
	k.want = append([]byte("hdr"), k.want...)
	k.sent = m
	fbufs := slices.Clone(m.Fbufs())
	if len(fbufs) < 2 {
		t.Fatalf("message has %d fbufs, want several", len(fbufs))
	}
	start := r.clk.Now()
	if err := top.PushBelow(m); err != nil {
		t.Fatal(err)
	}
	if len(k.views) != 1 {
		t.Fatalf("receiver got %d views", len(k.views))
	}
	if min := r.sys.Cost.IPCLatency + r.sys.Cost.IPCPerFbuf*simtime.Duration(len(fbufs)); r.clk.Now()-start < min {
		t.Errorf("crossing charged %v, want at least IPC latency plus %d descriptors", r.clk.Now()-start, len(fbufs))
	}
	for _, f := range fbufs {
		if f.HeldBy(up) || !f.HeldBy(lo) || f.Refs() != 1 {
			t.Errorf("fbuf %#x after the call: sender holds %v, receiver %v, refs %d",
				uint64(f.Base), f.HeldBy(up), f.HeldBy(lo), f.Refs())
		}
	}
	if err := k.views[0].Free(lo); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// echo is a bottom layer that, on the first message it is pushed, delivers
// a reply upward; the layer above answers by pushing a second message
// through the same stub while the first call is still in flight.
type echo struct {
	Base
	t      *testing.T
	stub   *stub
	ctx    *aggregate.Ctx
	first  *aggregate.Msg // the sender's view of the outer message
	got    []string
	nested bool
}

func (e *echo) Push(m *aggregate.Msg) error {
	b, err := m.ReadAll(e.Dom())
	if err != nil {
		return err
	}
	e.got = append(e.got, string(b))
	if !e.nested {
		e.nested = true
		reply, err := e.ctx.NewData([]byte("reply"))
		if err != nil {
			return err
		}
		if err := e.DeliverAbove(reply); err != nil {
			return err
		}
		if e.stub.msg.Body != e.first || e.stub.msg.Op != "push" || !e.stub.calling {
			e.t.Errorf("after the nested call the stub's message is %+v (calling %v), want the outer call's", e.stub.msg, e.stub.calling)
		}
	}
	return m.Free(e.Dom())
}

func (e *echo) Deliver(m *aggregate.Msg) error { return m.Free(e.Dom()) }

// answerer is a top layer that answers each delivery by pushing a message
// down.
type answerer struct {
	Base
	ctx *aggregate.Ctx
}

func (a *answerer) Push(m *aggregate.Msg) error { return m.Free(a.Dom()) }

func (a *answerer) Deliver(m *aggregate.Msg) error {
	if err := m.Free(a.Dom()); err != nil {
		return err
	}
	inner, err := a.ctx.NewData([]byte("inner"))
	if err != nil {
		return err
	}
	return a.PushBelow(inner)
}

// TestNestedCallThroughStub: a call that re-enters a stub while its own
// call is in flight takes a fresh IPC message, so both calls carry their
// own message, and the stub's message is cleared once both return.
func TestNestedCallThroughStub(t *testing.T) {
	for _, ring := range []bool{false, true} {
		r := newRig(t)
		if ring {
			r.env.Router.EnableRings(r.clk.Now)
		}
		up, lo := r.reg.New("upper"), r.reg.New("lower")
		top := &answerer{Base: NewBase("top", up)}
		bot := &echo{Base: NewBase("bot", lo), t: t}
		Connect(r.env, top, bot)
		bot.stub = top.Below().(*stub)
		p, err := r.mgr.NewPath("t", core.CachedVolatile(), 1, up, lo)
		if err != nil {
			t.Fatal(err)
		}
		if top.ctx, err = aggregate.NewCtx(r.mgr, p, true); err != nil {
			t.Fatal(err)
		}
		q, err := r.mgr.NewPath("r", core.CachedVolatile(), 1, lo, up)
		if err != nil {
			t.Fatal(err)
		}
		if bot.ctx, err = aggregate.NewCtx(r.mgr, q, true); err != nil {
			t.Fatal(err)
		}
		outer, err := top.ctx.NewData([]byte("outer"))
		if err != nil {
			t.Fatal(err)
		}
		bot.first = outer
		if err := top.PushBelow(outer); err != nil {
			t.Fatal(err)
		}
		if want := []string{"outer", "inner"}; !slices.Equal(bot.got, want) {
			t.Errorf("ring=%v: bottom saw %q, want %q", ring, bot.got, want)
		}
		if im := bot.stub.msg; im.Op != "" || im.Inline != nil || im.Descriptors != 0 || im.Body != nil || bot.stub.calling {
			t.Errorf("ring=%v: stub keeps message %+v (calling %v) after the calls", ring, bot.stub.msg, bot.stub.calling)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkCrossing measures one warm 64-byte integrated hop through a
// stub: NewData, the transfer, the IPC call with Open in the handler, both
// Frees and the notice hooks.
func BenchmarkCrossing(b *testing.B) {
	for _, mode := range []struct {
		name string
		ring bool
	}{{"legacy", false}, {"ring", true}} {
		b.Run(mode.name, func(b *testing.B) {
			_, top, _, ctx := crossingRig(b, mode.ring)
			data := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := ctx.NewData(data)
				if err != nil {
					b.Fatal(err)
				}
				if err := top.PushBelow(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
