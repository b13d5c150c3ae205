package protocols

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fbufs/internal/aggregate"
	"fbufs/internal/obs/span"
	"fbufs/internal/xkernel"
)

// IPHeaderBytes is the (simplified) IP header size carried on every PDU.
const IPHeaderBytes = 20

// IP is the internetwork layer: it fragments large datagrams into PDUs of
// at most PDUBytes payload and reassembles them on delivery.
// Fragmentation never copies data: each fragment is an offset/length view
// into the original buffers, exactly as section 2.1.1 prescribes.
type IP struct {
	xkernel.Base
	env *xkernel.Env
	ctx *aggregate.Ctx

	// PDUBytes is the maximum payload per PDU (4 KB in the loopback
	// experiment, 16 KB — or 32 KB in the ablation — end-to-end).
	PDUBytes int

	nextID  uint32
	partial map[uint32]*reassembly
	// spare is a completed datagram's reassembly record, its map cleared
	// but keeping its buckets, for the next fragmented datagram.
	spare *reassembly

	// Stats
	SentPDUs, ReceivedPDUs, Reassembled, Dropped uint64
}

type reassembly struct {
	total    int // -1 until the final fragment arrives
	got      int
	segments map[int]*aggregate.Msg // offset -> fragment body
}

// NewIP creates the IP layer with header buffers drawn from ctx.
func NewIP(env *xkernel.Env, ctx *aggregate.Ctx, pduBytes int) *IP {
	return &IP{
		Base:     xkernel.NewBase("ip", ctx.Dom),
		env:      env,
		ctx:      ctx,
		PDUBytes: pduBytes,
		partial:  make(map[uint32]*reassembly),
	}
}

func (ip *IP) header(id uint32, off, n, total int, more bool) []byte {
	hdr := make([]byte, IPHeaderBytes)
	hdr[0] = 0x45
	binary.BigEndian.PutUint32(hdr[4:], id)
	binary.BigEndian.PutUint32(hdr[8:], uint32(off))
	binary.BigEndian.PutUint32(hdr[12:], uint32(n))
	if more {
		hdr[1] = 1
	} else {
		binary.BigEndian.PutUint32(hdr[16:], uint32(total))
	}
	return hdr
}

// Push fragments (if needed) and sends each PDU down. Entering the
// fragmentation path has a fixed setup cost — the source of the paper's
// Figure 4 "anomaly" just above the 4 KB PDU size.
func (ip *IP) Push(m *aggregate.Msg) error {
	if o := ip.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageProto, "ip", int(ip.Dom().ID)+ip.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	id := ip.nextID
	ip.nextID++
	total := m.Len()
	if total <= ip.PDUBytes {
		ip.env.Sys.Sink().Charge(ip.env.Sys.Cost.IPPerPDU)
		out, err := ip.ctx.Push(m, ip.header(id, 0, total, total, false))
		if err != nil {
			return err
		}
		ip.SentPDUs++
		return ip.PushBelow(out)
	}
	ip.env.Sys.Sink().Charge(ip.env.Sys.Cost.IPFragSetup)
	off := 0
	rest := m
	for off < total {
		n := total - off
		more := n > ip.PDUBytes
		if more {
			n = ip.PDUBytes
		}
		var frag *aggregate.Msg
		var err error
		if more {
			frag, rest, err = ip.ctx.Split(rest, n)
			if err != nil {
				return err
			}
		} else {
			frag, rest = rest, nil
		}
		ip.env.Sys.Sink().Charge(ip.env.Sys.Cost.IPPerPDU)
		out, err := ip.ctx.Push(frag, ip.header(id, off, n, total, more))
		if err != nil {
			return err
		}
		ip.SentPDUs++
		if err := ip.PushBelow(out); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Deliver reassembles fragments; a complete datagram goes up as a single
// message joined in offset order.
func (ip *IP) Deliver(m *aggregate.Msg) error {
	if o := ip.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageProto, "ip", int(ip.Dom().ID)+ip.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	ip.env.Sys.Sink().Charge(ip.env.Sys.Cost.IPReassPerPDU)
	ip.ReceivedPDUs++
	if m.Len() < IPHeaderBytes {
		ip.Dropped++
		return m.Free(ip.Dom())
	}
	hdr, body, err := ip.ctx.Pop(m, IPHeaderBytes)
	if err != nil {
		return err
	}
	id := binary.BigEndian.Uint32(hdr[4:])
	off := int(binary.BigEndian.Uint32(hdr[8:]))
	n := int(binary.BigEndian.Uint32(hdr[12:]))
	more := hdr[1] == 1
	if body.Len() != n {
		ip.Dropped++
		return body.Free(ip.Dom())
	}
	// Unfragmented fast path.
	if off == 0 && !more {
		if _, pending := ip.partial[id]; !pending {
			ip.Reassembled++
			return ip.DeliverAbove(body)
		}
	}
	r := ip.partial[id]
	if r == nil {
		if r = ip.spare; r != nil {
			ip.spare = nil
		} else {
			r = &reassembly{segments: make(map[int]*aggregate.Msg)}
		}
		r.total = -1
		ip.partial[id] = r
	}
	if dup, ok := r.segments[off]; ok {
		// Duplicate fragment: drop the older copy.
		r.got -= dup.Len()
		if err := dup.Free(ip.Dom()); err != nil {
			return err
		}
	}
	r.segments[off] = body
	r.got += n
	if !more {
		r.total = int(binary.BigEndian.Uint32(hdr[16:]))
	}
	if r.total < 0 || r.got < r.total {
		return nil
	}
	// Join fragments in offset order.
	whole, err := ip.joinInOrder(r)
	if err != nil {
		return err
	}
	delete(ip.partial, id)
	total := r.total
	clear(r.segments)
	r.got = 0
	ip.spare = r
	if whole.Len() != total {
		ip.Dropped++
		return whole.Free(ip.Dom())
	}
	ip.Reassembled++
	return ip.DeliverAbove(whole)
}

// FlushPartial discards every incomplete reassembly — the stale state left
// behind when a fragment's siblings were lost on the link and the transport
// retransmitted the whole datagram under a fresh IP id — freeing the held
// fragment buffers. Real stacks bound this state with a reassembly timer;
// the simulation flushes at teardown and counts the discards in Dropped.
// It returns the number of datagrams discarded.
func (ip *IP) FlushPartial() (int, error) {
	ids := make([]uint32, 0, len(ip.partial))
	for id := range ip.partial {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := ip.partial[id]
		offs := make([]int, 0, len(r.segments))
		for off := range r.segments {
			offs = append(offs, off)
		}
		sort.Ints(offs)
		for _, off := range offs {
			if err := r.segments[off].Free(ip.Dom()); err != nil {
				return 0, err
			}
		}
		delete(ip.partial, id)
		ip.Dropped++
	}
	return len(ids), nil
}

func (ip *IP) joinInOrder(r *reassembly) (*aggregate.Msg, error) {
	var whole *aggregate.Msg
	off := 0
	for off < r.total {
		seg, ok := r.segments[off]
		if !ok {
			return nil, fmt.Errorf("ip: reassembly hole at %d of %d", off, r.total)
		}
		delete(r.segments, off)
		next := off + seg.Len()
		if whole == nil {
			whole = seg
		} else {
			var err error
			whole, err = ip.ctx.Join(whole, seg)
			if err != nil {
				return nil, err
			}
		}
		off = next
	}
	return whole, nil
}
