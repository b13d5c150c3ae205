package protocols

import (
	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/xkernel"
)

// StackConfig describes a UDP/IP protocol stack instance and how it is
// distributed over protection domains.
type StackConfig struct {
	// Src, Net, Sink are the domains for the sending test protocol, the
	// network server (UDP/IP/driver), and the receiving dummy protocol.
	// In the paper's "single domain" configuration all three are equal.
	Src, Net, Sink *domain.Domain

	// Opts selects the fbuf optimization level for every allocator in
	// the stack; Integrated additionally selects integrated buffer
	// management in the aggregate layer.
	Opts core.Options

	// PDUBytes is IP's fragmentation threshold (4 KB in the loopback
	// experiment, 16 or 32 KB end-to-end).
	PDUBytes int

	// DataFbufPages sizes the source's data fbufs (large messages span
	// several).
	DataFbufPages int

	// Checksum enables UDP checksumming.
	Checksum bool
}

// LoopbackStack is the paper's third-experiment configuration: a UDP/IP
// stack with a local loopback protocol below IP.
type LoopbackStack struct {
	Env    *xkernel.Env
	Source *TestProto
	Sink   *TestProto
	UDP    *UDP
	IP     *IP
	Loop   *Loopback

	SrcCtx, NetCtx *aggregate.Ctx
}

const testPort = 7777

// NewLoopbackStack builds and wires the loopback stack.
func NewLoopbackStack(env *xkernel.Env, cfg StackConfig) (*LoopbackStack, error) {
	if cfg.DataFbufPages == 0 {
		cfg.DataFbufPages = 16
	}
	srcPath, err := env.Mgr.NewPath("app-out", cfg.Opts, cfg.DataFbufPages, cfg.Src, cfg.Net, cfg.Sink)
	if err != nil {
		return nil, err
	}
	srcPath.SetQuota(64)
	srcCtx, err := aggregate.NewCtx(env.Mgr, srcPath, cfg.Opts.Integrated)
	if err != nil {
		return nil, err
	}
	hdrPath, err := env.Mgr.NewPath("net-hdrs", cfg.Opts, 1, cfg.Net, cfg.Sink)
	if err != nil {
		return nil, err
	}
	hdrPath.SetQuota(64)
	netCtx, err := aggregate.NewCtx(env.Mgr, hdrPath, cfg.Opts.Integrated)
	if err != nil {
		return nil, err
	}

	s := &LoopbackStack{Env: env, SrcCtx: srcCtx, NetCtx: netCtx}
	s.Source = NewTestProto(env, srcCtx)
	sinkCtx := aggregate.NewUncachedCtx(env.Mgr, cfg.Sink, cfg.Opts, 1, cfg.Opts.Integrated)
	s.Sink = NewTestProto(env, sinkCtx)
	s.UDP = NewUDP(env, netCtx, testPort, testPort)
	s.UDP.Checksum = cfg.Checksum
	s.IP = NewIP(env, netCtx, cfg.PDUBytes)
	s.Loop = NewLoopback(env, netCtx)

	xkernel.Connect(env, s.Source, s.UDP)
	xkernel.Connect(env, s.UDP, s.IP)
	xkernel.Connect(env, s.IP, s.Loop)
	s.UDP.Bind(testPort, xkernel.Attach(env, s.Sink, cfg.Net))
	return s, nil
}

// Send pushes one n-byte message from the source; with the loopback
// below IP it arrives at the sink within the same call.
func (s *LoopbackStack) Send(n int) error { return s.Source.SendUntouched(n) }

// SendVerified pushes a patterned message for integrity checking.
func (s *LoopbackStack) SendVerified(seq uint64, n int) error { return s.Source.Send(seq, n) }
