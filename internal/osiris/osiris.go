// Package osiris models the Bellcore Osiris ATM network adapter used in
// the paper's end-to-end experiments, attached to a DecStation's
// TurboChannel and connected host-to-host by a null modem (622 Mb/s link,
// 516 Mb/s net of cell overhead).
//
// The board is a bus master: it segments outgoing PDUs into ATM cells and
// DMAs them over the TurboChannel (one DMA start per cell payload — the
// hardware property that caps Osiris at 367 Mb/s despite the bus's
// 800 Mb/s peak; CPU/memory contention further reduces effective I/O to
// 285 Mb/s). On receive it reassembles cells into a buffer selected by the
// cell's VCI: the driver keeps preallocated *cached* fbufs for the 16 most
// recently used data paths and a queue of uncached fbufs for everything
// else (paper section 5.2).
//
// Timing (bus occupancy, link serialization, interrupt scheduling) is
// orchestrated by package netsim; this package provides the driver layer,
// the VCI table, and the cell arithmetic.
package osiris

import (
	"fmt"
	"hash/crc32"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
	"fbufs/internal/xkernel"
)

// VCI identifies a virtual circuit.
type VCI uint32

// MaxCachedVCIs is the size of the driver's per-path preallocation table.
const MaxCachedVCIs = 16

// TxPDU is an outgoing PDU handed to the board: its wire bytes (gathered
// by DMA from the message's fbufs) and the CPU-time offset within the
// current task at which the protocol stack finished preparing it — the
// netsim host uses the offset to start each PDU's DMA as soon as it is
// ready, pipelining fragmentation with transmission.
type TxPDU struct {
	VCI       VCI
	Data      []byte
	CPUOffset simtime.Duration
	// CRC is the AAL5-trailer-style checksum the adapter computes over the
	// wire bytes during transmit DMA; the receiving adapter recomputes it
	// (ReceiveChecked) and discards corrupted PDUs. Computed in hardware,
	// so no CPU cost is charged.
	CRC uint32
	// Trace is the transfer trace the PDU belongs to (0: untraced). It
	// crosses the wire so the receiving host's spans land in the same
	// trace — the cross-host leg of the latency attribution.
	Trace uint64
}

// Driver is the Osiris device driver: the bottom layer of the protocol
// graph, running in the kernel domain.
type Driver struct {
	xkernel.Base
	env *xkernel.Env

	// TxVCI stamps outgoing PDUs.
	TxVCI VCI

	// AutoInstall makes the driver add a cached path for a previously
	// unseen VCI after its first (uncached) PDU, keeping the table at the
	// 16 most recently used circuits. On by default, as in the paper.
	AutoInstall bool

	// RxBatch, when positive, keeps up to RxBatch preallocated reassembly
	// fbufs per cached circuit, refilled from the path in one AllocBatch
	// call — the driver pays the allocator lock once per batch instead of
	// once per PDU, the preallocation discipline of section 5.2 taken to
	// its batched conclusion. Zero (the default) allocates per PDU,
	// preserving the facility's historical event and fault schedules
	// exactly. Stashes drain through FreeBatch on eviction and Close.
	RxBatch int

	// CPUOffset reports metered CPU time consumed so far in the current
	// task (set by the netsim host); zero when unset.
	CPUOffset func() simtime.Duration

	txq []TxPDU

	// VCI table: cached reassembly paths, LRU-ordered (front = oldest).
	vcis    map[VCI]*vciEntry
	lru     []VCI
	rxOpts  core.Options
	rxDoms  []*domain.Domain // receive data path, kernel first
	rxPages int              // reassembly fbuf size in pages
	uctx    *aggregate.Ctx   // lazy, for unknown-VCI (uncached) buffers

	// Stats
	TxPDUs, RxPDUs   uint64
	RxCachedAllocs   uint64
	RxUncachedAllocs uint64
	VCIEvictions     uint64
	// CRCDrops counts PDUs the adapter discarded on a ReceiveChecked CRC
	// mismatch (corruption on the link).
	CRCDrops uint64
}

type vciEntry struct {
	path *core.DataPath
	ctx  *aggregate.Ctx
	// stash holds live, preallocated reassembly fbufs (RxBatch mode).
	stash []*core.Fbuf
}

// rxAlloc returns the next reassembly fbuf for a cached circuit: straight
// from the path in the default mode, from the circuit's batched stash
// (refilling it with one AllocBatch when empty) in RxBatch mode.
func (d *Driver) rxAlloc(e *vciEntry) (*core.Fbuf, error) {
	if d.RxBatch <= 0 {
		return e.path.Alloc()
	}
	if len(e.stash) == 0 {
		bufs := make([]*core.Fbuf, d.RxBatch)
		n, err := e.path.AllocBatch(bufs)
		if n == 0 {
			return nil, err
		}
		e.stash = bufs[:n]
	}
	// Pop in allocation order so PDU-to-buffer assignment matches a
	// per-PDU allocation sequence.
	f := e.stash[0]
	e.stash = e.stash[1:]
	return f, nil
}

// drainStash returns a circuit's preallocated fbufs to its path in one
// batched free (eviction and driver shutdown).
func (d *Driver) drainStash(e *vciEntry) error {
	if len(e.stash) == 0 {
		return nil
	}
	err := d.env.Mgr.FreeBatch(e.stash, d.Dom())
	e.stash = nil
	return err
}

// NewDriver creates the driver in the kernel domain. rxDoms is the
// sequence of domains incoming data traverses (kernel first); rxPages
// sizes the reassembly buffers (ceil of max wire PDU).
func NewDriver(env *xkernel.Env, opts core.Options, rxDoms []*domain.Domain, rxPages int) *Driver {
	d := &Driver{
		Base:        xkernel.NewBase("osiris", env.Reg.Kernel()),
		env:         env,
		vcis:        make(map[VCI]*vciEntry),
		rxOpts:      opts,
		rxDoms:      rxDoms,
		rxPages:     rxPages,
		AutoInstall: true,
		CPUOffset:   func() simtime.Duration { return 0 },
	}
	return d
}

// Push gathers the PDU's bytes by DMA (no CPU data touching: the board is
// a bus master reading the fbufs' frames directly) and queues it for
// transmission, then releases the kernel's buffer references.
func (d *Driver) Push(m *aggregate.Msg) error {
	o := d.env.Sys.Obs
	if o != nil {
		o.SpanBegin(span.StageDMA, "osiris", int(d.Dom().ID)+d.env.Sys.TraceBase, int64(m.Len()))
		defer o.SpanEnd()
	}
	d.env.Sys.Sink().Charge(d.env.Sys.Cost.DriverPerPDU)
	data := make([]byte, 0, m.Len())
	for _, s := range m.Segs() {
		if s.F == nil {
			// Absence of data (volatile dangling reference): wire
			// carries zeros.
			data = append(data, make([]byte, s.N)...)
			continue
		}
		chunk := make([]byte, s.N)
		if err := s.F.DMARead(int(s.VA-s.F.Base), chunk); err != nil {
			return err
		}
		data = append(data, chunk...)
	}
	d.txq = append(d.txq, TxPDU{
		VCI: d.TxVCI, Data: data, CPUOffset: d.CPUOffset(),
		CRC: crc32.ChecksumIEEE(data), Trace: o.CurrentTrace(),
	})
	d.TxPDUs++
	if o != nil {
		o.Emit(obs.EvDMAStart, int(d.Dom().ID)+d.env.Sys.TraceBase, obs.NoTrack, 0, int64(len(data)))
	}
	return m.Free(d.Dom())
}

// TakeTxQueue drains the transmit queue (the netsim host flushes it after
// each CPU task).
func (d *Driver) TakeTxQueue() []TxPDU {
	q := d.txq
	d.txq = nil
	return q
}

// Deliver is invalid: nothing is below the driver.
func (d *Driver) Deliver(m *aggregate.Msg) error {
	return fmt.Errorf("osiris: driver has no layer below")
}

// AddVCI installs a cached per-path reassembly allocator for the circuit,
// evicting the least recently used entry beyond MaxCachedVCIs.
func (d *Driver) AddVCI(v VCI) error {
	if _, ok := d.vcis[v]; ok {
		d.touchVCI(v)
		return nil
	}
	if len(d.lru) >= MaxCachedVCIs {
		victim := d.lru[0]
		d.lru = d.lru[1:]
		e := d.vcis[victim]
		delete(d.vcis, victim)
		if err := d.drainStash(e); err != nil {
			return err
		}
		if err := e.ctx.Close(); err != nil {
			return err
		}
		d.env.Mgr.ClosePath(e.path)
		d.VCIEvictions++
	}
	path, err := d.env.Mgr.NewPath(fmt.Sprintf("vci-%d", v), d.rxOpts, d.rxPages, d.rxDoms...)
	if err != nil {
		return err
	}
	path.SetQuota(32)
	ctx, err := aggregate.NewCtx(d.env.Mgr, path, d.rxOpts.Integrated)
	if err != nil {
		return err
	}
	d.vcis[v] = &vciEntry{path: path, ctx: ctx}
	d.lru = append(d.lru, v)
	return nil
}

func (d *Driver) touchVCI(v VCI) {
	for i, e := range d.lru {
		if e == v {
			d.lru = append(append(d.lru[:i], d.lru[i+1:]...), v)
			return
		}
	}
}

// CachedVCIs returns the number of installed cached circuits.
func (d *Driver) CachedVCIs() int { return len(d.lru) }

// ReceiveChecked is Receive behind the adapter's CRC check: the board
// recomputes the AAL5-style checksum over the reassembled PDU and, on a
// mismatch, discards it without involving the protocol stack — only the
// interrupt is charged. Transports above (SWP) see the corruption as loss
// and retransmit. Callers that model a link able to corrupt bytes (netsim
// with a fault plane) must come through here; Receive itself stays
// CRC-oblivious for callers whose links cannot corrupt.
func (d *Driver) ReceiveChecked(v VCI, data []byte, crc uint32) error {
	if crc32.ChecksumIEEE(data) != crc {
		d.env.Sys.Sink().Charge(d.env.Sys.Cost.InterruptCost)
		d.CRCDrops++
		if o := d.env.Sys.Obs; o != nil {
			o.Emit(obs.EvCRCDrop, int(d.Dom().ID)+d.env.Sys.TraceBase, obs.NoTrack, 0, int64(len(data)))
		}
		return nil
	}
	return d.Receive(v, data)
}

// Receive accepts a fully reassembled wire PDU from the board (the DMA
// into main memory has already been costed on the bus by netsim; here the
// driver charges interrupt and processing time, places the data in an fbuf
// of the VCI's path — or an uncached fbuf for unknown circuits — and
// delivers it up the stack).
func (d *Driver) Receive(v VCI, data []byte) error {
	if o := d.env.Sys.Obs; o != nil {
		o.SpanBegin(span.StageDMA, "osiris", int(d.Dom().ID)+d.env.Sys.TraceBase, int64(len(data)))
		defer o.SpanEnd()
	}
	cost := d.env.Sys.Cost
	d.env.Sys.Sink().Charge(cost.InterruptCost + cost.DriverPerPDU)
	d.RxPDUs++
	if o := d.env.Sys.Obs; o != nil {
		o.Emit(obs.EvDMADone, int(d.Dom().ID)+d.env.Sys.TraceBase, obs.NoTrack, 0, int64(len(data)))
	}
	pages := (len(data) + machine.PageSize - 1) / machine.PageSize
	if pages == 0 {
		pages = 1
	}
	var m *aggregate.Msg
	if e, ok := d.vcis[v]; ok && pages <= e.path.FbufPages() {
		d.touchVCI(v)
		f, err := d.rxAlloc(e)
		if err != nil {
			return err
		}
		if err := f.DMAWrite(0, data); err != nil {
			return err
		}
		m, err = e.ctx.WrapFbuf(f, 0, len(data))
		if err != nil {
			return err
		}
		d.RxCachedAllocs++
	} else {
		opts := d.rxOpts
		opts.Cached = false
		// The board will DMA the whole PDU into the buffer, so only the
		// tail beyond the PDU needs a security clear.
		f, err := d.env.Mgr.AllocUncachedFill(d.Dom(), pages, opts, len(data))
		if err != nil {
			return err
		}
		if err := f.DMAWrite(0, data); err != nil {
			return err
		}
		if d.uctx == nil {
			d.uctx = aggregate.NewUncachedCtx(d.env.Mgr, d.Dom(), opts, 1, opts.Integrated)
		}
		m, err = d.uctx.WrapFbuf(f, 0, len(data))
		if err != nil {
			return err
		}
		d.RxUncachedAllocs++
		// The table tracks the 16 most recently used data paths: traffic
		// on a new circuit earns it a cached allocator (possibly evicting
		// the LRU one). Oversized PDUs stay uncached.
		if d.AutoInstall && pages <= d.rxPages {
			if err := d.AddVCI(v); err != nil {
				return err
			}
		}
	}
	return d.DeliverAbove(m)
}

// Close shuts the driver down: every cached circuit's reassembly context
// and data path is torn down (LRU order, oldest first, so teardown is
// deterministic), as is the uncached context. Used by host shutdown before
// convergence checking.
func (d *Driver) Close() error {
	for _, v := range d.lru {
		e := d.vcis[v]
		delete(d.vcis, v)
		if err := d.drainStash(e); err != nil {
			return err
		}
		if err := e.ctx.Close(); err != nil {
			return err
		}
		d.env.Mgr.ClosePath(e.path)
	}
	d.lru = nil
	if d.uctx != nil {
		if err := d.uctx.Close(); err != nil {
			return err
		}
		d.uctx = nil
	}
	return nil
}

// CellCount returns the number of ATM cells a PDU occupies.
func CellCount(cost *machine.CostTable, bytes int) int {
	p := cost.ATMCellPayload
	n := (bytes + p - 1) / p
	if n == 0 {
		n = 1
	}
	return n
}

// BusTime returns the TurboChannel occupancy to DMA a PDU's cells,
// including memory-contention stalls.
func BusTime(cost *machine.CostTable, bytes int) simtime.Duration {
	return simtime.Duration(CellCount(cost, bytes)) * (cost.BusCellDMA + cost.BusContention)
}

// LinkTime returns the null-modem serialization time for a PDU's cells.
func LinkTime(cost *machine.CostTable, bytes int) simtime.Duration {
	return simtime.Duration(CellCount(cost, bytes)) * cost.LinkCell
}
