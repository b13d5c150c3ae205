// Package ipc implements the simulated cross-domain invocation facility
// (Mach IPC plus the x-kernel proxy layer, as used in the paper's
// evaluation platform). It provides synchronous port-based RPC between
// protection domains on one host, charging the calibrated control-transfer
// latency, and a piggyback hook through which the fbuf manager attaches
// deallocation notices to replies (paper section 3.3).
//
// The data-transfer cost of a call is NOT charged here: what a message
// *carries* (copied bytes, fbuf descriptors, an integrated-DAG root
// reference) is costed by the transfer facility that prepared it. ipc
// charges only control transfer and per-descriptor marshalling.
package ipc

import (
	"fmt"

	"fbufs/internal/domain"
	"fbufs/internal/obs/span"
	"fbufs/internal/rings"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// PortID names a service endpoint within one host.
type PortID int

// Message is a cross-domain message. Exactly one payload style is typically
// used per call:
//
//   - Inline: small arguments copied by value (already costed by sender).
//   - Descriptors: the number of out-of-line fbuf descriptors carried, each
//     charged IPCPerFbuf (the integrated optimization reduces this to 1).
//   - Body: simulator-level payload handed to the receiver, such as an
//     x-kernel proxy's message view. This is Go plumbing, not simulated
//     data; anything the receiver reads through it must be readable through
//     its own address space or the access will fault there. The router
//     keeps no reference to a Message after Call returns.
type Message struct {
	Op          string
	Inline      []byte
	Descriptors int
	Body        interface{}
}

// Handler serves calls on a port, in the context of the port's domain.
type Handler func(from *domain.Domain, msg *Message) (*Message, error)

// ReplyHook is invoked after a handler returns and may attach piggybacked
// state to the reply path. The fbuf manager uses it to deliver pending
// deallocation notices destined for the caller ("the reply message is used
// to carry deallocation notices from this list").
type ReplyHook func(replier, caller *domain.Domain)

// NoticeSource pops the pending deallocation-notice batch held at holder
// for fbufs owned by owner, returning the opaque batch and its size. On the
// ring path it replaces the ReplyHook piggyback: the batch rides one
// coalesced completion entry. Registered by xkernel.NewEnv (the router
// cannot import core).
type NoticeSource func(holder, owner *domain.Domain) (batch interface{}, n int)

// NoticeSink retires a batch previously popped by a NoticeSource (recycles
// the fbufs). Invoked when the caller drains its completion ring, or
// directly when the completion ring is full.
type NoticeSink func(batch interface{})

// Router connects domains on one host.
type Router struct {
	sys   *vm.System
	ports map[PortID]*port
	next  PortID

	replyHooks []ReplyHook

	// CrossingSurcharge is added to every cross-domain call. The
	// end-to-end experiments use it to model the instruction-cache and
	// TLB pressure of duplicated library text once a third domain joins
	// a data path (paper section 4: "we attribute this penalty to the
	// exhaustion of cache and TLB when a third domain is added").
	CrossingSurcharge simtime.Duration

	// Calls counts cross-domain calls charged the full control-transfer
	// cost (same-domain calls are free and uncounted; ring-routed calls
	// are counted by their pair's doorbell statistics instead).
	Calls uint64

	// Ring mode (the syscall-free data plane). ringNow is non-nil once
	// EnableRings ran; ringPairs holds one directional rings.Pair per
	// attached (from, to) domain pair, and ringList preserves creation
	// order for deterministic aggregation.
	ringNow      func() simtime.Time
	ringPairs    map[ringKey]*rings.Pair
	ringList     []*rings.Pair
	noticeSource NoticeSource
	noticeSink   NoticeSink
}

// ringKey identifies one direction of a domain pair's ring attachment.
type ringKey struct {
	from, to *domain.Domain
}

type port struct {
	id      PortID
	owner   *domain.Domain
	handler Handler
}

// NewRouter creates a router charging IPC costs to sys's cost sink.
func NewRouter(sys *vm.System) *Router {
	return &Router{sys: sys, ports: make(map[PortID]*port), next: 1}
}

// Register creates a port owned by d, served by handler.
func (r *Router) Register(d *domain.Domain, handler Handler) PortID {
	id := r.next
	r.next++
	r.ports[id] = &port{id: id, owner: d, handler: handler}
	return id
}

// Unregister removes a port (domain teardown).
func (r *Router) Unregister(id PortID) { delete(r.ports, id) }

// OnReply registers a reply hook.
func (r *Router) OnReply(h ReplyHook) { r.replyHooks = append(r.replyHooks, h) }

// EnableRings switches the router into ring mode: domain pairs attached
// with AttachRing route their calls through shared-memory rings, charging
// only doorbells. now supplies the virtual clock the spin-then-block
// policy runs on. Call before any AttachRing.
func (r *Router) EnableRings(now func() simtime.Time) {
	r.ringNow = now
	if r.ringPairs == nil {
		r.ringPairs = make(map[ringKey]*rings.Pair)
	}
}

// SetNoticeHooks registers the deallocation-notice source and sink used by
// the ring path's coalesced completion entries.
func (r *Router) SetNoticeHooks(src NoticeSource, sink NoticeSink) {
	r.noticeSource = src
	r.noticeSink = sink
}

// AttachRing maps a ring pair for calls from→to (one direction; attach both
// for a bidirectional path). No-op unless ring mode is enabled, idempotent
// per pair. The doorbell cost is latched from the current IPC cost plus
// crossing surcharge, matching what a legacy call would have charged.
func (r *Router) AttachRing(from, to *domain.Domain) *rings.Pair {
	if r.ringNow == nil || from == nil || to == nil || from == to {
		return nil
	}
	k := ringKey{from: from, to: to}
	if pr, ok := r.ringPairs[k]; ok {
		return pr
	}
	pr, err := rings.NewPair(r.sys, from.Name+"->"+to.Name, 0, r.ringNow,
		int(from.ID)+r.sys.TraceBase, int(to.ID)+r.sys.TraceBase)
	if err != nil {
		return nil
	}
	pr.DoorbellCost = r.sys.Cost.IPCLatency + r.CrossingSurcharge
	r.ringPairs[k] = pr
	r.ringList = append(r.ringList, pr)
	return pr
}

// RingStats aggregates the counters of every attached ring pair in
// creation order. Charged crossings under ring mode are Calls (fallback
// path) plus RingStats().Doorbells.
func (r *Router) RingStats() rings.Stats {
	var s rings.Stats
	for _, pr := range r.ringList {
		s.Add(pr.Stats())
	}
	return s
}

// Owner returns the domain owning the port, or nil.
func (r *Router) Owner(id PortID) *domain.Domain {
	if p, ok := r.ports[id]; ok {
		return p.owner
	}
	return nil
}

// Call performs a synchronous RPC from domain `from` to the port. The full
// round-trip control-transfer latency (IPCLatency) plus per-descriptor
// marshalling is charged; then the handler runs; then reply hooks fire.
//
// A call to a port within the caller's own domain is a plain procedure call
// and charges nothing — this is what makes the paper's "single domain"
// baseline configurations free of IPC cost.
func (r *Router) Call(from *domain.Domain, id PortID, msg *Message) (*Message, error) {
	p, ok := r.ports[id]
	if !ok {
		return nil, fmt.Errorf("ipc: no such port %d", id)
	}
	if p.owner.Dead() {
		return nil, fmt.Errorf("ipc: port %d owner %s is dead", id, p.owner)
	}
	if msg == nil {
		msg = &Message{}
	}
	crossing := p.owner != from
	if crossing {
		if pr := r.ringPairs[ringKey{from: from, to: p.owner}]; pr != nil {
			if reply, err, ok := r.ringCall(pr, from, p, msg); ok {
				return reply, err
			}
			// Ring full: fall through to the always-available legacy
			// charged path.
		}
	}
	if crossing {
		if o := r.sys.Obs; o != nil {
			o.SpanBegin(span.StageIPC, "ipc", int(p.owner.ID)+r.sys.TraceBase, int64(msg.Descriptors))
			defer o.SpanEnd()
		}
		r.Calls++
		cost := r.sys.Cost.IPCLatency + r.CrossingSurcharge
		if msg.Descriptors > 0 {
			cost += r.sys.Cost.IPCPerFbuf * simtime.Duration(msg.Descriptors)
		}
		r.sys.Sink().Charge(cost)
	}
	reply, err := p.handler(from, msg)
	if crossing {
		for _, h := range r.replyHooks {
			h(p.owner, from)
		}
	}
	return reply, err
}

// ringCall routes one crossing through the pair's rings. The submission
// carries the descriptors through shared memory (no IPCPerFbuf
// marshalling); the drain runs the handler in the consumer's context; the
// acknowledgement rides back as one completion entry per drained
// submission, carrying that drain's coalesced deallocation notices.
// Returns ok=false (nothing charged, nothing submitted) when the
// submission ring is full and the caller must use the legacy path.
func (r *Router) ringCall(pr *rings.Pair, from *domain.Domain, p *port, msg *Message) (*Message, error, bool) {
	if err := pr.Submit(rings.Entry{Op: msg.Op, Descriptors: msg.Descriptors, Body: msg}); err != nil {
		return nil, nil, false
	}
	// The consumer drains its backlog in order; calls are synchronous, so
	// the entry just submitted is always included. Each drained entry is
	// served and acknowledged with one completion carrying the notices
	// that accumulated at the replier for this caller.
	var reply *Message
	var herr error
	pr.Drain(func(e rings.Entry) error {
		m := e.Body.(*Message)
		rep, err := p.handler(from, m)
		if m == msg {
			reply, herr = rep, err
		}
		var batch interface{}
		n := 0
		if r.noticeSource != nil {
			batch, n = r.noticeSource(p.owner, from)
		}
		if cerr := pr.Complete(rings.Completion{Op: m.Op, Notices: n, Payload: batch}); cerr != nil {
			// Completion ring full: retire the notices directly. The
			// legacy piggyback was free too, so nothing extra is charged.
			if n > 0 && r.noticeSink != nil {
				r.noticeSink(batch)
			}
		}
		// A handler error belongs to this entry's caller alone; keep
		// draining the backlog.
		return nil
	})
	// The caller reaps its acknowledgements and retires the coalesced
	// notice batches they carry.
	pr.DrainCompletions(func(c rings.Completion) {
		if c.Notices > 0 && r.noticeSink != nil {
			r.noticeSink(c.Payload)
		}
	})
	return reply, herr, true
}
