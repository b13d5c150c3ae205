package osiris

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
	"fbufs/internal/xkernel"
)

type rig struct {
	clk *simtime.Clock
	sys *vm.System
	reg *domain.Registry
	mgr *core.Manager
	env *xkernel.Env
	app *domain.Domain
}

func newRig(t testing.TB) *rig {
	t.Helper()
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 8192, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	env := xkernel.NewEnv(sys, mgr, reg)
	r := &rig{clk: clk, sys: sys, reg: reg, mgr: mgr, env: env}
	r.app = reg.New("app")
	mgr.AttachDomain(r.app)
	return r
}

// sink records delivered messages.
type sink struct {
	xkernel.Base
	dom  *domain.Domain
	got  [][]byte
	errs []error
}

func (s *sink) Deliver(m *aggregate.Msg) error {
	data, err := m.ReadAll(s.dom)
	if err != nil {
		return err
	}
	s.got = append(s.got, data)
	return m.Free(s.dom)
}
func (s *sink) Push(m *aggregate.Msg) error { return fmt.Errorf("sink push") }

func newDriver(t *testing.T, r *rig) (*Driver, *sink) {
	t.Helper()
	d := NewDriver(r.env, core.CachedVolatile(), []*domain.Domain{r.reg.Kernel(), r.app}, 5)
	sk := &sink{Base: xkernel.NewBase("sink", r.reg.Kernel()), dom: r.reg.Kernel()}
	d.SetAbove(sk)
	return d, sk
}

func TestTxGathersAndFrees(t *testing.T) {
	r := newRig(t)
	d, _ := newDriver(t, r)
	d.TxVCI = 7

	p, err := r.mgr.NewPath("tx", core.CachedVolatile(), 4, r.reg.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := aggregate.NewCtx(r.mgr, p, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 9000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	m, err := ctx.NewData(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Push(m); err != nil {
		t.Fatal(err)
	}
	q := d.TakeTxQueue()
	if len(q) != 1 {
		t.Fatalf("queued %d PDUs", len(q))
	}
	if q[0].VCI != 7 {
		t.Fatalf("VCI %d", q[0].VCI)
	}
	if !bytes.Equal(q[0].Data, payload) {
		t.Fatal("gathered wire bytes differ from message")
	}
	// The driver freed the kernel's references; buffers recycled.
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(d.TakeTxQueue()) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestRxCachedVCI(t *testing.T) {
	r := newRig(t)
	d, sk := newDriver(t, r)
	if err := d.AddVCI(5); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 7000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := d.Receive(5, data); err != nil {
		t.Fatal(err)
	}
	if len(sk.got) != 1 || !bytes.Equal(sk.got[0], data) {
		t.Fatal("delivered PDU corrupt")
	}
	if d.RxCachedAllocs != 1 || d.RxUncachedAllocs != 0 {
		t.Fatalf("alloc stats: %d cached, %d uncached", d.RxCachedAllocs, d.RxUncachedAllocs)
	}
	// Steady state: second PDU reuses the recycled reassembly buffer.
	if err := d.Receive(5, data); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Snapshot().CacheHits == 0 {
		t.Fatal("no reassembly-buffer cache hit")
	}
}

func TestRxUnknownVCIUsesUncached(t *testing.T) {
	r := newRig(t)
	d, sk := newDriver(t, r)
	if err := d.Receive(99, []byte("mystery circuit")); err != nil {
		t.Fatal(err)
	}
	if d.RxUncachedAllocs != 1 {
		t.Fatalf("uncached allocs %d", d.RxUncachedAllocs)
	}
	if len(sk.got) != 1 || string(sk.got[0]) != "mystery circuit" {
		t.Fatal("uncached delivery corrupt")
	}
}

func TestVCITableLRUEviction(t *testing.T) {
	r := newRig(t)
	d, _ := newDriver(t, r)
	for i := 0; i < MaxCachedVCIs; i++ {
		if err := d.AddVCI(VCI(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d.CachedVCIs() != MaxCachedVCIs {
		t.Fatalf("cached VCIs %d", d.CachedVCIs())
	}
	// Touch VCI 0 so it is most recently used; adding one more must evict
	// VCI 1, not 0.
	if err := d.AddVCI(0); err != nil {
		t.Fatal(err)
	}
	if err := d.AddVCI(VCI(MaxCachedVCIs)); err != nil {
		t.Fatal(err)
	}
	if d.CachedVCIs() != MaxCachedVCIs {
		t.Fatalf("cached VCIs %d after eviction", d.CachedVCIs())
	}
	if d.VCIEvictions != 1 {
		t.Fatalf("evictions %d", d.VCIEvictions)
	}
	// PDUs for VCI 0 still take the cached path; VCI 1 falls back.
	if err := d.Receive(0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if d.RxCachedAllocs != 1 {
		t.Fatal("VCI 0 lost its cached path")
	}
	if err := d.Receive(1, []byte("evicted")); err != nil {
		t.Fatal(err)
	}
	if d.RxUncachedAllocs != 1 {
		t.Fatal("evicted VCI 1 did not fall back to uncached")
	}
}

func TestOversizedPDUFallsBackToUncached(t *testing.T) {
	r := newRig(t)
	d, sk := newDriver(t, r) // cached reassembly buffers: 5 pages
	if err := d.AddVCI(5); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 6*machine.PageSize)
	if err := d.Receive(5, big); err != nil {
		t.Fatal(err)
	}
	if d.RxUncachedAllocs != 1 {
		t.Fatal("oversized PDU should use the uncached queue")
	}
	if len(sk.got) != 1 || len(sk.got[0]) != len(big) {
		t.Fatal("oversized delivery corrupt")
	}
}

func TestCellArithmetic(t *testing.T) {
	cost := machine.DecStation5000()
	if n := CellCount(cost, 48); n != 1 {
		t.Fatalf("48B = %d cells", n)
	}
	if n := CellCount(cost, 49); n != 2 {
		t.Fatalf("49B = %d cells", n)
	}
	if n := CellCount(cost, 0); n != 1 {
		t.Fatalf("0B = %d cells", n)
	}
	// 16KB PDU over the contended bus sustains ~285 Mb/s.
	bytes := 16 * 1024
	bt := BusTime(cost, bytes)
	rate := float64(bytes) * 8 / 1e6 / bt.Seconds()
	if rate < 280 || rate > 290 {
		t.Fatalf("bus rate %.0f Mb/s, want ~285", rate)
	}
	// And the link is faster than the contended bus (never the bottleneck).
	if LinkTime(cost, bytes) >= bt {
		t.Fatal("link slower than bus")
	}
}

func TestReceiveChargesInterruptAndDriver(t *testing.T) {
	r := newRig(t)
	d, _ := newDriver(t, r)
	if err := d.AddVCI(5); err != nil {
		t.Fatal(err)
	}
	// Warm up so allocation costs settle.
	if err := d.Receive(5, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	start := r.clk.Now()
	if err := d.Receive(5, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	min := r.sys.Cost.InterruptCost + r.sys.Cost.DriverPerPDU
	if got := r.clk.Now() - start; got < min {
		t.Fatalf("receive charged %v, want at least %v", got, min)
	}
}

// txCtx returns an integrated kernel context whose data fbufs hold 16 KB.
func txCtx(t testing.TB, r *rig) *aggregate.Ctx {
	t.Helper()
	p, err := r.mgr.NewPath("tx", core.CachedVolatile(), 4, r.reg.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := aggregate.NewCtx(r.mgr, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// pushOne pushes a message holding data and takes its one queued PDU.
func pushOne(t *testing.T, d *Driver, ctx *aggregate.Ctx, data []byte) []byte {
	t.Helper()
	m, err := ctx.NewData(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Push(m); err != nil {
		t.Fatal(err)
	}
	q := d.TakeTxQueue()
	if len(q) != 1 || !bytes.Equal(q[0].Data, data) {
		t.Fatal("gathered wire bytes differ from message")
	}
	return q[0].Data
}

// TestRecycledBufferZeroesAbsentData: a PDU whose message has a nil-fbuf
// segment (a volatile dangling reference) carries zeros there, even when
// its wire buffer is a recycled one that held another PDU's bytes.
func TestRecycledBufferZeroesAbsentData(t *testing.T) {
	r := newRig(t)
	d, _ := newDriver(t, r)
	ctx := txCtx(t, r)
	const real, absent = 1000, 3000
	wire := pushOne(t, d, ctx, bytes.Repeat([]byte{0xaa}, real+absent))
	d.Recycle(wire)

	// A pair node whose left leaf is data in f and whose right leaf points
	// at the region's last page, which no fbuf covers.
	p, err := r.mgr.NewPath("dag", core.CachedVolatile(), 1, r.reg.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, real+absent)
	for i := range want[:real] {
		want[i] = byte(i*7 + 1)
	}
	if err := f.Write(r.reg.Kernel(), 0, want[:real]); err != nil {
		t.Fatal(err)
	}
	dangling := core.RegionBase + vm.VA((r.mgr.RegionPages()-1)*machine.PageSize)
	if r.mgr.FbufAt(dangling) != nil {
		t.Fatal("the region's last page is an fbuf")
	}
	node := func(kind byte, n int, a, b vm.VA) []byte {
		enc := make([]byte, 32)
		enc[0] = kind
		binary.LittleEndian.PutUint32(enc[4:], uint32(n))
		binary.LittleEndian.PutUint64(enc[8:], uint64(a))
		binary.LittleEndian.PutUint64(enc[16:], uint64(b))
		return enc
	}
	const leaf, pair = 1, 2
	nodes := slices.Concat(
		node(pair, real+absent, f.Base+2048+32, f.Base+2048+64),
		node(leaf, real, f.Base, 0),
		node(leaf, absent, dangling, 0))
	if err := f.Write(r.reg.Kernel(), 2048, nodes); err != nil {
		t.Fatal(err)
	}
	m, err := aggregate.Open(r.mgr, r.reg.Kernel(), f.Base+2048)
	if err != nil {
		t.Fatal(err)
	}
	if segs := m.Segs(); len(segs) != 2 || segs[1].F != nil {
		t.Fatalf("opened %d segments, want a data leaf and a dangling one", len(segs))
	}
	if err := d.Push(m); err != nil {
		t.Fatal(err)
	}
	q := d.TakeTxQueue()
	if len(q) != 1 {
		t.Fatalf("queued %d PDUs", len(q))
	}
	if &q[0].Data[0] != &wire[0] {
		t.Fatal("the PDU did not reuse the recycled buffer")
	}
	if !bytes.Equal(q[0].Data, want) {
		t.Fatalf("wire bytes [%d:] = %x..., want zeros after the data leaf", real, q[0].Data[real:real+8])
	}
}

// TestShortSpareNotStretched: a spare shorter than the next PDU is never
// sliced past its length, and it does not block the spares below it.
func TestShortSpareNotStretched(t *testing.T) {
	r := newRig(t)
	d, _ := newDriver(t, r)
	ctx := txCtx(t, r)
	ones, twos := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 9000)
	short := pushOne(t, d, ctx, ones)
	long := pushOne(t, d, ctx, twos)
	d.Recycle(long)
	d.Recycle(short) // the most recent spare is too short for the next PDU
	again := pushOne(t, d, ctx, bytes.Repeat([]byte{3}, 9000))
	if &again[0] != &long[0] {
		t.Fatal("a 9000-byte PDU did not reuse the 9000-byte spare below a 100-byte one")
	}
	if d.Spares() != 1 || !bytes.Equal(short, ones) {
		t.Fatal("the short spare was dropped or written")
	}
	if b := pushOne(t, d, ctx, bytes.Repeat([]byte{4}, 100)); &b[0] != &short[0] || d.Spares() != 0 {
		t.Fatal("a 100-byte PDU did not reuse the 100-byte spare")
	}
	d.Recycle(again)
	d.ReleaseSpares()
	if d.Spares() != 0 {
		t.Fatalf("%d spares after ReleaseSpares", d.Spares())
	}
}

// discard frees every delivered message unread.
type discard struct {
	xkernel.Base
}

func (s *discard) Deliver(m *aggregate.Msg) error { return m.Free(s.Dom()) }
func (s *discard) Push(m *aggregate.Msg) error    { return fmt.Errorf("discard push") }

// BenchmarkPushReceive pushes a warm 16 KB PDU, receives it on a cached
// circuit and recycles its wire buffer.
func BenchmarkPushReceive(b *testing.B) {
	r := newRig(b)
	d := NewDriver(r.env, core.CachedVolatile(), []*domain.Domain{r.reg.Kernel()}, 5)
	d.SetAbove(&discard{Base: xkernel.NewBase("discard", r.reg.Kernel())})
	if err := d.AddVCI(5); err != nil {
		b.Fatal(err)
	}
	ctx := txCtx(b, r)
	cycle := func() {
		m, err := ctx.NewTouched(16 * 1024)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Push(m); err != nil {
			b.Fatal(err)
		}
		for _, pdu := range d.TakeTxQueue() {
			if err := d.Receive(5, pdu.Data); err != nil {
				b.Fatal(err)
			}
			d.Recycle(pdu.Data)
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
