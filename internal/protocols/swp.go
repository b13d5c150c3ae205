package protocols

import (
	"encoding/binary"
	"fmt"

	"fbufs/internal/aggregate"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
	"fbufs/internal/xkernel"
)

// SWPHeaderBytes is the sliding-window protocol header size.
const SWPHeaderBytes = 12

// swp header kinds.
const (
	swpData = 1
	swpAck  = 2
)

// TimerSource arms one-shot timers for the retransmission machinery. The
// event-driven harness backs it with the scheduler; synchronous tests use
// a manual crank.
type TimerSource interface {
	After(d simtime.Duration, fn func())
}

// SWP is a sliding-window transport: sequence numbers, cumulative
// acknowledgements, go-back-N-style retransmission on timeout, and
// in-order delivery with bounded out-of-order buffering. The paper's
// end-to-end test protocol "uses a sliding window to facilitate flow
// control"; SWP is that protocol as a first-class layer, usable over
// lossy links.
//
// Retransmission retains access to sent data after pushing it down —
// exactly the case the paper gives for copy semantics ("the passing layer
// needs to retain access to the buffer, for example, because it may need
// to retransmit it sometime in the future"). SWP holds a Clone of each
// unacknowledged message; immutability makes the clone free.
type SWP struct {
	xkernel.Base
	env    *xkernel.Env
	ctx    *aggregate.Ctx
	timers TimerSource

	// Window is the maximum number of unacknowledged messages.
	Window int
	// RTO is the initial retransmission timeout. Each unacknowledged
	// retransmission of a message doubles its timeout (plus deterministic
	// seeded jitter) up to RTOMax; an acknowledgement resets the next
	// message to RTO.
	RTO simtime.Duration
	// RTOMax caps the per-message backoff; 0 means 64×RTO.
	RTOMax simtime.Duration
	// MaxRetries bounds retransmissions per message before the
	// connection errors out.
	MaxRetries int

	// Backpressure, when set, is polled before admitting a message into
	// the window. While it reports true the effective window shrinks to
	// half (minimum 1), so an overloaded allocator sees its senders slow
	// down instead of thrash — the admission controller's Pressured
	// method is the intended source (core.Admission). Messages beyond
	// the shrunken window queue in pending exactly like window-full ones.
	Backpressure func() bool

	// Transmit state.
	nextSeq  uint64
	sendBase uint64
	inflight map[uint64]*inflightEntry
	pending  []*aggregate.Msg

	// Receive state.
	expected uint64
	ooBuf    map[uint64]*aggregate.Msg
	// OOLimit bounds the out-of-order buffer.
	OOLimit int

	// jitter is the private splitmix64 state for backoff jitter; seeded
	// by NewSWP (SeedJitter overrides) so runs are deterministic.
	jitter uint64

	// Stats. Backoffs counts timeout events that grew a message's RTO
	// (i.e. every retransmission armed with a longer timer).
	// PressureStalls counts sends parked in pending that a full window
	// alone would have admitted — the cost of honoring Backpressure.
	Sent, Delivered, Retransmits, DupsDropped, AcksSent, AcksReceived, Backoffs uint64
	PressureStalls                                                              uint64

	// Err records a terminal failure (retry exhaustion).
	Err error
}

type inflightEntry struct {
	msg     *aggregate.Msg // retransmission clone
	retries int
	gen     uint64           // invalidates stale timers after ack/retransmit
	rto     simtime.Duration // current timeout, doubled on each retransmit
}

// NewSWP builds the layer; ctx supplies header buffers and retransmission
// clones live in ctx's domain.
func NewSWP(env *xkernel.Env, ctx *aggregate.Ctx, timers TimerSource) *SWP {
	return &SWP{
		Base:       xkernel.NewBase("swp", ctx.Dom),
		env:        env,
		ctx:        ctx,
		timers:     timers,
		Window:     8,
		RTO:        simtime.MS(5),
		MaxRetries: 16,
		inflight:   make(map[uint64]*inflightEntry),
		ooBuf:      make(map[uint64]*aggregate.Msg),
		OOLimit:    64,
		jitter:     0x5bd1e995,
	}
}

// SeedJitter reseeds the deterministic backoff-jitter stream (two SWPs with
// the same seed and event sequence produce identical timers).
func (s *SWP) SeedJitter(seed uint64) { s.jitter = seed ^ 0x9e3779b97f4a7c15 }

// effectiveRTOMax resolves the backoff cap.
func (s *SWP) effectiveRTOMax() simtime.Duration {
	if s.RTOMax > 0 {
		return s.RTOMax
	}
	return 64 * s.RTO
}

// nextJitter draws a deterministic jitter in [0, max) from the private
// splitmix64 stream; max <= 0 yields 0.
func (s *SWP) nextJitter(max simtime.Duration) simtime.Duration {
	if max <= 0 {
		return 0
	}
	return simtime.Duration(simtime.SplitMix64(&s.jitter) % uint64(max))
}

func (s *SWP) header(kind byte, seq uint64) []byte {
	hdr := make([]byte, SWPHeaderBytes)
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[4:], seq)
	return hdr
}

// Push accepts one message for reliable, in-order delivery to the peer.
func (s *SWP) Push(m *aggregate.Msg) error {
	if o := s.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageProto, "swp", int(s.Dom().ID)+s.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	if s.Err != nil {
		return s.Err
	}
	if len(s.inflight) >= s.effWindow() {
		if len(s.inflight) < s.Window {
			s.PressureStalls++ // parked by backpressure, not window
		}
		s.pending = append(s.pending, m)
		return nil
	}
	return s.sendData(m)
}

// effWindow is the window currently in force: the configured Window,
// halved (minimum 1) while the Backpressure source reports pressure.
func (s *SWP) effWindow() int {
	if s.Backpressure != nil && s.Backpressure() {
		if w := (s.Window + 1) / 2; w >= 1 {
			return w
		}
		return 1
	}
	return s.Window
}

func (s *SWP) sendData(m *aggregate.Msg) error {
	seq := s.nextSeq
	s.nextSeq++
	clone, err := m.Clone(s.Dom())
	if err != nil {
		return err
	}
	e := &inflightEntry{msg: clone, rto: s.RTO}
	s.inflight[seq] = e
	s.Sent++
	out, err := s.ctx.Push(m, s.header(swpData, seq))
	if err != nil {
		return err
	}
	if err := s.PushBelow(out); err != nil {
		return err
	}
	s.armTimer(seq, e, false)
	return nil
}

// armTimer arms the entry's current per-message timeout, adding up to
// rto/8 of deterministic seeded jitter on retransmission arms. The timer
// closes over the generation so an ack or a later retransmission
// invalidates it.
func (s *SWP) armTimer(seq uint64, e *inflightEntry, jittered bool) {
	if s.timers == nil {
		return
	}
	d := e.rto
	if jittered {
		d += s.nextJitter(e.rto / 8)
	}
	gen := e.gen
	s.timers.After(d, func() { s.timeout(seq, gen) })
}

// timeout retransmits an unacknowledged message with exponential backoff:
// the message's timeout doubles (capped at RTOMax) plus up to rto/8 of
// deterministic seeded jitter, so repeated losses — or a timed partition —
// spread retransmissions out instead of hammering a congested or dead link.
func (s *SWP) timeout(seq uint64, gen uint64) {
	e, ok := s.inflight[seq]
	if !ok || e.gen != gen || s.Err != nil {
		return // acknowledged meanwhile, or superseded
	}
	e.retries++
	if e.retries > s.MaxRetries {
		s.Err = fmt.Errorf("swp: seq %d exceeded %d retries", seq, s.MaxRetries)
		return
	}
	e.gen++
	s.Retransmits++
	if max := s.effectiveRTOMax(); e.rto < max {
		e.rto *= 2
		if e.rto > max {
			e.rto = max
		}
		s.Backoffs++
	}
	resend, err := e.msg.Clone(s.Dom())
	if err != nil {
		s.Err = err
		return
	}
	out, err := s.ctx.Push(resend, s.header(swpData, seq))
	if err != nil {
		s.Err = err
		return
	}
	if err := s.PushBelow(out); err != nil {
		s.Err = err
		return
	}
	s.armTimer(seq, e, true)
}

// Deliver handles an arriving PDU from the peer: data (buffer, order,
// acknowledge) or a cumulative ack (open the window).
func (s *SWP) Deliver(m *aggregate.Msg) error {
	if o := s.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageProto, "swp", int(s.Dom().ID)+s.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	if m.Len() < SWPHeaderBytes {
		return m.Free(s.Dom())
	}
	hdr, body, err := s.ctx.Pop(m, SWPHeaderBytes)
	if err != nil {
		return err
	}
	kind := hdr[0]
	seq := binary.BigEndian.Uint64(hdr[4:])
	switch kind {
	case swpAck:
		s.AcksReceived++
		if err := body.Free(s.Dom()); err != nil {
			return err
		}
		return s.handleAck(seq)
	case swpData:
		return s.handleData(seq, body)
	default:
		return body.Free(s.Dom())
	}
}

// handleAck processes a cumulative acknowledgement of everything < seq.
func (s *SWP) handleAck(ackThrough uint64) error {
	for seq := s.sendBase; seq < ackThrough; seq++ {
		if e, ok := s.inflight[seq]; ok {
			e.gen++ // kill pending timer
			if err := e.msg.Free(s.Dom()); err != nil {
				return err
			}
			delete(s.inflight, seq)
		}
	}
	if ackThrough > s.sendBase {
		s.sendBase = ackThrough
	}
	// Window opened: drain pending sends (respecting backpressure).
	for len(s.pending) > 0 && len(s.inflight) < s.effWindow() {
		m := s.pending[0]
		s.pending = s.pending[1:]
		if err := s.sendData(m); err != nil {
			return err
		}
	}
	return nil
}

// handleData orders arriving data and acknowledges cumulatively.
func (s *SWP) handleData(seq uint64, body *aggregate.Msg) error {
	switch {
	case seq == s.expected:
		s.expected++
		s.Delivered++
		if err := s.DeliverAbove(body); err != nil {
			return err
		}
		// Drain any buffered successors.
		for {
			next, ok := s.ooBuf[s.expected]
			if !ok {
				break
			}
			delete(s.ooBuf, s.expected)
			s.expected++
			s.Delivered++
			if err := s.DeliverAbove(next); err != nil {
				return err
			}
		}
	case seq > s.expected && len(s.ooBuf) < s.OOLimit:
		if _, dup := s.ooBuf[seq]; dup {
			s.DupsDropped++
			if err := body.Free(s.Dom()); err != nil {
				return err
			}
		} else {
			s.ooBuf[seq] = body
		}
	default: // duplicate of already-delivered data, or buffer full
		s.DupsDropped++
		if err := body.Free(s.Dom()); err != nil {
			return err
		}
	}
	return s.sendAck()
}

// sendAck emits a cumulative acknowledgement for everything below
// s.expected.
func (s *SWP) sendAck() error {
	s.AcksSent++
	ack, err := s.ctx.NewData(s.header(swpAck, s.expected))
	if err != nil {
		return err
	}
	return s.PushBelow(ack)
}

// InflightCount reports outstanding unacknowledged messages.
func (s *SWP) InflightCount() int { return len(s.inflight) }

// PendingCount reports messages waiting for window credit.
func (s *SWP) PendingCount() int { return len(s.pending) }
