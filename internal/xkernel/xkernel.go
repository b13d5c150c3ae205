// Package xkernel implements a simplified x-kernel protocol graph — the
// framework the paper's evaluation platform used to compose device drivers,
// network protocols, and application code into a stack that may span
// multiple protection domains.
//
// Layers expose a bidirectional interface: Push sends a message down toward
// the device, Deliver hands an incoming message up toward the application.
// Connect links two layers; when they live in different protection domains
// it transparently inserts a proxy pair ("proxy objects are used in the
// x-kernel to forward cross-domain invocations using Mach IPC"). The proxy
// transfers the message's fbufs to the peer domain and performs an IPC
// call; with integrated buffer management only a single DAG-root reference
// crosses the boundary.
package xkernel

import (
	"fmt"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/ipc"
	"fbufs/internal/vm"
)

// Layer is one protocol, driver, or application endpoint in the graph.
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// Dom is the protection domain the layer's code runs in.
	Dom() *domain.Domain
	// Push sends a message downward. The callee takes responsibility for
	// the message (the caller must not use it afterwards).
	Push(m *aggregate.Msg) error
	// Deliver hands an incoming message upward; same ownership rule.
	Deliver(m *aggregate.Msg) error
	// SetAbove / SetBelow wire the graph; Connect calls them.
	SetAbove(Layer)
	SetBelow(Layer)
}

// Env bundles the per-host facilities layers need.
type Env struct {
	Sys    *vm.System
	Mgr    *core.Manager
	Reg    *domain.Registry
	Router *ipc.Router
}

// NewEnv wires an Env and registers the fbuf manager's deallocation-notice
// hook on the IPC router (notices ride on RPC replies, section 3.3) plus
// the ring-mode notice source/sink (notices ride coalesced completion
// entries when a domain pair is ring-attached).
func NewEnv(sys *vm.System, mgr *core.Manager, reg *domain.Registry) *Env {
	e := &Env{Sys: sys, Mgr: mgr, Reg: reg, Router: ipc.NewRouter(sys)}
	e.Router.OnReply(mgr.DeliverNotices)
	e.Router.SetNoticeHooks(
		func(holder, owner *domain.Domain) (interface{}, int) {
			b := mgr.CollectNotices(holder, owner)
			if len(b) == 0 {
				return nil, 0
			}
			return b, len(b)
		},
		func(batch interface{}) {
			if fs, ok := batch.([]*core.Fbuf); ok {
				mgr.RetireNotices(fs)
			}
		},
	)
	return e
}

// attachRings maps the ring pair for both directions of a cross-domain
// link, so every call between those domains rides the shared-memory ring
// data plane. Connect and Attach call it for every cross-domain link; it
// is a no-op unless the router is in ring mode (Router.EnableRings).
func attachRings(env *Env, a, b *domain.Domain) {
	env.Router.AttachRing(a, b)
	env.Router.AttachRing(b, a)
}

// Base provides the linking boilerplate layers embed.
type Base struct {
	name  string
	dom   *domain.Domain
	above Layer
	below Layer
}

// NewBase constructs the embeddable core of a layer.
func NewBase(name string, dom *domain.Domain) Base { return Base{name: name, dom: dom} }

// Name returns the layer name.
func (b *Base) Name() string { return b.name }

// Dom returns the layer's domain.
func (b *Base) Dom() *domain.Domain { return b.dom }

// SetAbove records the upstream neighbour.
func (b *Base) SetAbove(l Layer) { b.above = l }

// SetBelow records the downstream neighbour.
func (b *Base) SetBelow(l Layer) { b.below = l }

// Above returns the upstream neighbour.
func (b *Base) Above() Layer { return b.above }

// Below returns the downstream neighbour.
func (b *Base) Below() Layer { return b.below }

// PushBelow forwards a message to the layer below.
func (b *Base) PushBelow(m *aggregate.Msg) error {
	if b.below == nil {
		return fmt.Errorf("xkernel: %s has no layer below", b.name)
	}
	return b.below.Push(m)
}

// DeliverAbove forwards a message to the layer above.
func (b *Base) DeliverAbove(m *aggregate.Msg) error {
	if b.above == nil {
		return fmt.Errorf("xkernel: %s has no layer above", b.name)
	}
	return b.above.Deliver(m)
}

// Connect links upper above lower, inserting a cross-domain proxy pair when
// their domains differ.
func Connect(env *Env, upper, lower Layer) {
	if upper.Dom() == lower.Dom() {
		upper.SetBelow(lower)
		lower.SetAbove(upper)
		return
	}
	p := newProxy(env, upper, lower, lower.Dom())
	upper.SetBelow(p.upperStub)
	lower.SetAbove(p.lowerStub)
	attachRings(env, upper.Dom(), lower.Dom())
}

// Attach returns a delivery handle for upper usable from code running in
// lowerDom, inserting an upward-only proxy when the domains differ. It is
// how demultiplexing layers (UDP's port table, the driver's VCI table)
// route to multiple upper layers without re-wiring their default
// neighbours.
func Attach(env *Env, upper Layer, lowerDom *domain.Domain) Layer {
	if upper.Dom() == lowerDom {
		return upper
	}
	p := newProxy(env, upper, nil, lowerDom)
	attachRings(env, upper.Dom(), lowerDom)
	return p.lowerStub
}

// proxy forwards invocations between two domains, moving message buffers
// with the fbuf facility and control with IPC.
type proxy struct {
	env          *Env
	upper, lower Layer
	downPort     ipc.PortID // owned by lower's domain; upper calls it
	upPort       ipc.PortID // owned by upper's domain; lower calls it
	upperStub    *stub      // lives in upper's domain, acts as its "below"
	lowerStub    *stub      // lives in lower's domain, acts as its "above"
}

func newProxy(env *Env, upper, lower Layer, lowerDom *domain.Domain) *proxy {
	p := &proxy{env: env, upper: upper, lower: lower}
	if lower != nil {
		p.downPort = env.Router.Register(lowerDom, func(from *domain.Domain, msg *ipc.Message) (*ipc.Message, error) {
			m, err := p.receive(msg, lowerDom)
			if err != nil {
				return nil, err
			}
			return nil, lower.Push(m)
		})
		p.upperStub = &stub{p: p, dom: upper.Dom(), peerDom: lowerDom, port: p.downPort, name: lower.Name() + "-proxy"}
	}
	p.upPort = env.Router.Register(upper.Dom(), func(from *domain.Domain, msg *ipc.Message) (*ipc.Message, error) {
		m, err := p.receive(msg, upper.Dom())
		if err != nil {
			return nil, err
		}
		return nil, upper.Deliver(m)
	})
	p.lowerStub = &stub{p: p, dom: lowerDom, peerDom: upper.Dom(), port: p.upPort, name: upper.Name() + "-proxy"}
	return p
}

// receive materializes the peer's view of the message the IPC body
// carries. Integrated messages are reconstructed from the root reference
// with full validation; private messages are rebuilt from the marshalled
// fbuf list (step 3c of the baseline transfer).
func (p *proxy) receive(im *ipc.Message, at *domain.Domain) (*aggregate.Msg, error) {
	m, ok := im.Body.(*aggregate.Msg)
	if !ok {
		return nil, fmt.Errorf("xkernel: malformed proxy message %q", im.Op)
	}
	if m.Integrated() {
		return aggregate.Open(p.env.Mgr, at, m.RootVA())
	}
	return m.ViewFor(at)
}

// stub is the Layer a proxy presents inside one domain.
type stub struct {
	p       *proxy
	dom     *domain.Domain
	peerDom *domain.Domain
	port    ipc.PortID
	name    string
	// msg is the IPC message the stub's calls reuse; calling marks it in
	// use by a call in flight.
	msg     ipc.Message
	calling bool
}

func (s *stub) Name() string        { return s.name }
func (s *stub) Dom() *domain.Domain { return s.dom }
func (s *stub) SetAbove(Layer)      {}
func (s *stub) SetBelow(Layer)      {}

// Push crosses downward into the peer domain.
func (s *stub) Push(m *aggregate.Msg) error { return s.send(m, "push") }

// Deliver crosses upward into the peer domain.
func (s *stub) Deliver(m *aggregate.Msg) error { return s.send(m, "deliver") }

// send transfers the message's buffers to the peer domain, performs the
// IPC, and releases the sender's references. The IPC body is m itself:
// what crosses is the DAG root for an integrated message, or the fbuf
// list marshalled as descriptors for a private one. The message is
// cleared after the call, so the stub keeps no view alive.
func (s *stub) send(m *aggregate.Msg, op string) error {
	if err := m.Transfer(s.dom, s.peerDom); err != nil {
		return fmt.Errorf("xkernel: proxy transfer: %w", err)
	}
	im := &s.msg
	if s.calling {
		// A call re-entering this stub (a layer on the far side answering
		// back through it) must leave the outer call's message alone.
		im = new(ipc.Message)
	} else {
		s.calling = true
	}
	*im = ipc.Message{Op: op, Descriptors: m.NumFbufs(), Body: m}
	_, err := s.p.env.Router.Call(s.dom, s.port, im)
	*im = ipc.Message{}
	if im == &s.msg {
		s.calling = false
	}
	if err != nil {
		return err
	}
	return m.Free(s.dom)
}
