package ipc

import (
	"errors"
	"testing"

	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

type rig struct {
	clk *simtime.Clock
	sys *vm.System
	reg *domain.Registry
	rt  *Router
}

func newRig() *rig {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 64, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	return &rig{clk: clk, sys: sys, reg: reg, rt: NewRouter(sys)}
}

func TestCallRoundTrip(t *testing.T) {
	r := newRig()
	server := r.reg.New("server")
	client := r.reg.New("client")
	port := r.rt.Register(server, func(from *domain.Domain, msg *Message) (*Message, error) {
		if from != client {
			t.Errorf("handler saw caller %v", from)
		}
		if msg.Op != "ping" {
			t.Errorf("op %q", msg.Op)
		}
		return &Message{Op: "pong"}, nil
	})
	reply, err := r.rt.Call(client, port, &Message{Op: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != "pong" {
		t.Fatalf("reply %q", reply.Op)
	}
	if r.rt.Calls != 1 {
		t.Fatalf("calls %d", r.rt.Calls)
	}
}

func TestCrossDomainLatencyCharged(t *testing.T) {
	r := newRig()
	server := r.reg.New("server")
	client := r.reg.New("client")
	port := r.rt.Register(server, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, nil
	})
	start := r.clk.Now()
	if _, err := r.rt.Call(client, port, nil); err != nil {
		t.Fatal(err)
	}
	if d := r.clk.Now() - start; d != r.sys.Cost.IPCLatency {
		t.Fatalf("charged %v, want %v", d, r.sys.Cost.IPCLatency)
	}
}

func TestDescriptorMarshallingCharged(t *testing.T) {
	r := newRig()
	server := r.reg.New("server")
	client := r.reg.New("client")
	port := r.rt.Register(server, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, nil
	})
	start := r.clk.Now()
	r.rt.Call(client, port, &Message{Descriptors: 4})
	want := r.sys.Cost.IPCLatency + 4*r.sys.Cost.IPCPerFbuf
	if d := r.clk.Now() - start; d != want {
		t.Fatalf("charged %v, want %v", d, want)
	}
}

func TestSameDomainCallIsFree(t *testing.T) {
	// Within one protection domain an invocation is a procedure call —
	// the basis of the paper's "single domain" baseline configurations.
	r := newRig()
	d := r.reg.New("monolith")
	port := r.rt.Register(d, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, nil
	})
	start := r.clk.Now()
	if _, err := r.rt.Call(d, port, &Message{Descriptors: 10}); err != nil {
		t.Fatal(err)
	}
	if d := r.clk.Now() - start; d != 0 {
		t.Fatalf("same-domain call charged %v", d)
	}
	if r.rt.Calls != 0 {
		t.Fatal("same-domain call counted as IPC")
	}
}

func TestReplyHookFiresOnCrossDomainOnly(t *testing.T) {
	r := newRig()
	server := r.reg.New("server")
	client := r.reg.New("client")
	var pairs [][2]*domain.Domain
	r.rt.OnReply(func(replier, caller *domain.Domain) {
		pairs = append(pairs, [2]*domain.Domain{replier, caller})
	})
	port := r.rt.Register(server, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, nil
	})
	r.rt.Call(client, port, nil)
	if len(pairs) != 1 || pairs[0][0] != server || pairs[0][1] != client {
		t.Fatalf("hooks %v", pairs)
	}
	selfPort := r.rt.Register(client, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, nil
	})
	r.rt.Call(client, selfPort, nil)
	if len(pairs) != 1 {
		t.Fatal("same-domain call fired reply hook")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	r := newRig()
	server := r.reg.New("server")
	client := r.reg.New("client")
	boom := errors.New("boom")
	port := r.rt.Register(server, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, boom
	})
	if _, err := r.rt.Call(client, port, nil); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
}

func TestUnknownPort(t *testing.T) {
	r := newRig()
	client := r.reg.New("client")
	if _, err := r.rt.Call(client, 999, nil); err == nil {
		t.Fatal("unknown port accepted")
	}
}

func TestDeadOwnerRejected(t *testing.T) {
	r := newRig()
	server := r.reg.New("server")
	client := r.reg.New("client")
	port := r.rt.Register(server, func(from *domain.Domain, msg *Message) (*Message, error) {
		return nil, nil
	})
	r.reg.Terminate(server)
	if _, err := r.rt.Call(client, port, nil); err == nil {
		t.Fatal("call to dead domain accepted")
	}
}
