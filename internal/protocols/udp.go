// Package protocols implements the protocol suite of the paper's
// evaluation: UDP and IP (with fragmentation and reassembly over a
// configurable PDU size), a local loopback pseudo-protocol that "turns
// PDUs around and sends them back up the protocol stack" to simulate an
// infinitely fast network, and the test/dummy protocols that source and
// sink messages. All protocols operate on immutable aggregate messages:
// headers are pushed by allocating new buffers and logically concatenating
// them — original data is never modified.
package protocols

import (
	"encoding/binary"

	"fbufs/internal/aggregate"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
	"fbufs/internal/xkernel"
)

// UDPHeaderBytes is the UDP header size.
const UDPHeaderBytes = 8

// UDP is the user datagram protocol layer. Demultiplexing is by
// destination port; each open port routes to one upper layer.
type UDP struct {
	xkernel.Base
	env *xkernel.Env
	ctx *aggregate.Ctx

	// Checksum enables full-payload checksumming (off in the paper's
	// throughput tests; the cost is dominated by the data reads).
	Checksum bool

	ports map[uint16]xkernel.Layer
	// LocalPort and RemotePort configure the single flow the test
	// protocols use.
	LocalPort, RemotePort uint16

	// Stats
	Sent, Received, Dropped uint64
}

// NewUDP creates the UDP layer with header buffers drawn from ctx.
func NewUDP(env *xkernel.Env, ctx *aggregate.Ctx, local, remote uint16) *UDP {
	return &UDP{
		Base:       xkernel.NewBase("udp", ctx.Dom),
		env:        env,
		ctx:        ctx,
		ports:      make(map[uint16]xkernel.Layer),
		LocalPort:  local,
		RemotePort: remote,
	}
}

// Bind routes datagrams for a destination port to the given upper layer.
func (u *UDP) Bind(port uint16, above xkernel.Layer) { u.ports[port] = above }

// Session is one UDP flow: a Layer whose Push stamps the session's ports.
// It lives in UDP's domain; connect upper layers to the session (x-kernel
// sessions work the same way).
type Session struct {
	xkernel.Base
	u             *UDP
	local, remote uint16
}

// OpenSession creates a flow with the given ports.
func (u *UDP) OpenSession(local, remote uint16) *Session {
	return &Session{Base: xkernel.NewBase("udp-session", u.Dom()), u: u, local: local, remote: remote}
}

// Push sends the message down the session's flow.
func (s *Session) Push(m *aggregate.Msg) error { return s.u.push(m, s.local, s.remote) }

// Deliver is invalid on a session: incoming traffic demuxes via Bind.
func (s *Session) Deliver(m *aggregate.Msg) error {
	return m.Free(s.Dom())
}

// Push prepends the UDP header with the default flow's ports.
func (u *UDP) Push(m *aggregate.Msg) error { return u.push(m, u.LocalPort, u.RemotePort) }

func (u *UDP) push(m *aggregate.Msg, local, remote uint16) error {
	if o := u.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageProto, "udp", int(u.Dom().ID)+u.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	u.env.Sys.Sink().Charge(u.env.Sys.Cost.UDPPerMsg)
	u.emitPkt(obs.EvPktSend, m.Len())
	var hdr [UDPHeaderBytes]byte
	binary.BigEndian.PutUint16(hdr[0:], local)
	binary.BigEndian.PutUint16(hdr[2:], remote)
	// The paper's UDP/IP were "slightly modified to support messages
	// larger than 64 KBytes": the 16-bit length field holds the length
	// modulo 2^16 and reassembly trusts IP's total, so we mirror that.
	binary.BigEndian.PutUint16(hdr[4:], uint16((m.Len()+UDPHeaderBytes)&0xFFFF))
	if u.Checksum {
		sum, err := u.checksumMsg(m)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint16(hdr[6:], sum)
	}
	u.Sent++
	out, err := u.ctx.Push(m, hdr[:])
	if err != nil {
		return err
	}
	return u.PushBelow(out)
}

// emitPkt traces a UDP packet event attributed to the protocol's domain.
func (u *UDP) emitPkt(kind obs.EventKind, bytes int) {
	if o := u.env.Sys.Obs; o != nil {
		o.Emit(kind, int(u.Dom().ID)+u.env.Sys.TraceBase, obs.NoTrack, 0, int64(bytes))
	}
}

// Deliver strips the header and demultiplexes on the destination port.
func (u *UDP) Deliver(m *aggregate.Msg) error {
	if o := u.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageProto, "udp", int(u.Dom().ID)+u.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	u.env.Sys.Sink().Charge(u.env.Sys.Cost.UDPPerMsg)
	u.emitPkt(obs.EvPktRecv, m.Len())
	if m.Len() < UDPHeaderBytes {
		u.Dropped++
		return m.Free(u.Dom())
	}
	hdr, body, err := u.ctx.Pop(m, UDPHeaderBytes)
	if err != nil {
		return err
	}
	dst := binary.BigEndian.Uint16(hdr[2:])
	if u.Checksum {
		want := binary.BigEndian.Uint16(hdr[6:])
		got, err := u.checksumMsg(body)
		if err != nil {
			return err
		}
		if want != got {
			u.Dropped++
			return body.Free(u.Dom())
		}
	}
	above, ok := u.ports[dst]
	if !ok {
		u.Dropped++
		return body.Free(u.Dom())
	}
	u.Received++
	return above.Deliver(body)
}

// checksumMsg computes the 16-bit ones'-complement internet checksum of the
// message body. Beyond the page-touch costs of reading through the address
// space, the per-byte summing work is charged at ChecksumPerPage — one of
// the few data manipulations "applied to the entire data" (section 5.2).
func (u *UDP) checksumMsg(m *aggregate.Msg) (uint16, error) {
	d := u.Dom()
	cost := u.env.Sys.Cost
	pages := (m.Len() + machine.PageSize - 1) / machine.PageSize
	u.env.Sys.Sink().Charge(simtime.Duration(pages) * cost.ChecksumPerPage)
	data, err := m.ReadAll(d)
	if err != nil {
		return 0, err
	}
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum), nil
}
