package vm

import (
	"errors"
	"strings"
	"testing"

	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/simtime"
)

func newSys() (*System, *simtime.Clock) {
	clk := &simtime.Clock{}
	sys := NewSystem(machine.DecStation5000(), 64, ClockSink{clk})
	return sys, clk
}

func TestMapReadWriteRoundTrip(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	va := VA(0x10000)
	as.MapOwned(va, fn, ReadWrite)
	msg := []byte("hello fbufs")
	if err := as.Write(va+5, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := as.Read(va+5, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("read back %q", buf)
	}
}

func TestCrossPageAccess(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	va := VA(0x10000)
	for i := 0; i < 3; i++ {
		fn, _ := sys.Mem.Alloc()
		as.MapOwned(va+VA(i*machine.PageSize), fn, ReadWrite)
	}
	data := make([]byte, 2*machine.PageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.Write(va+50, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(va+50, buf); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if buf[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, buf[i], data[i])
		}
	}
}

func TestSharedFrameIsSameStorage(t *testing.T) {
	// Two address spaces mapping one frame see each other's writes:
	// zero-copy is real.
	sys, _ := newSys()
	a := sys.NewAddrSpace("a")
	b := sys.NewAddrSpace("b")
	fn, _ := sys.Mem.Alloc()
	a.MapOwned(0x1000, fn, ReadWrite)
	b.Map(0x2000, fn, ProtRead) // different VA is fine at the vm layer
	if err := a.Write(0x1000, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if err := b.Read(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared" {
		t.Fatalf("b read %q", buf)
	}
}

func TestProtectionEnforced(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	as.MapOwned(0x1000, fn, ProtRead)
	err := as.Write(0x1000, []byte{1})
	var ae *AccessError
	if !errors.As(err, &ae) {
		t.Fatalf("write to read-only page: %v", err)
	}
	if !ae.Write {
		t.Fatal("AccessError should record a write")
	}
	if sys.Violations != 1 {
		t.Fatalf("violations %d", sys.Violations)
	}
	// Reads still work.
	if err := as.Read(0x1000, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestNoMappingFaults(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	err := as.Read(0x5000, make([]byte, 1))
	var ae *AccessError
	if !errors.As(err, &ae) {
		t.Fatalf("unmapped read: %v", err)
	}
	if !strings.Contains(ae.Error(), "no mapping") {
		t.Fatalf("cause: %v", ae)
	}
}

func TestSetProtRevokesAndRestores(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	as.MapOwned(0x1000, fn, ReadWrite)
	if !as.SetProt(0x1000, ProtRead) {
		t.Fatal("SetProt on mapped page failed")
	}
	if err := as.Write(0x1000, []byte{1}); err == nil {
		t.Fatal("write after downgrade succeeded")
	}
	as.SetProt(0x1000, ReadWrite)
	if err := as.Write(0x1000, []byte{1}); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	if as.SetProt(0xFF000, ProtRead) {
		t.Fatal("SetProt on unmapped page claimed success")
	}
}

func TestUnmapFreesFrame(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	as.MapOwned(0x1000, fn, ReadWrite)
	if !as.Unmap(0x1000) {
		t.Fatal("last unmap should free the frame")
	}
	if sys.Mem.Allocated() != 0 {
		t.Fatalf("%d frames leaked", sys.Mem.Allocated())
	}
	if as.Unmap(0x1000) {
		t.Fatal("double unmap claimed success")
	}
}

func TestCostAccounting(t *testing.T) {
	sys, clk := newSys()
	c := sys.Cost
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()

	start := clk.Now()
	as.MapOwned(0x1000, fn, ReadWrite)
	if d := clk.Now() - start; d != c.PTEMap {
		t.Errorf("map charged %v, want %v", d, c.PTEMap)
	}

	start = clk.Now()
	if err := as.TouchWrite(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if d := clk.Now() - start; d != c.TLBMiss {
		t.Errorf("first touch charged %v, want one TLB miss %v", d, c.TLBMiss)
	}

	start = clk.Now()
	if err := as.TouchWrite(0x1000, 2); err != nil {
		t.Fatal(err)
	}
	if d := clk.Now() - start; d != 0 {
		t.Errorf("warm touch charged %v, want 0", d)
	}

	start = clk.Now()
	as.SetProt(0x1000, ProtRead)
	if d := clk.Now() - start; d != c.ProtChange {
		t.Errorf("prot change charged %v, want %v", d, c.ProtChange)
	}

	// Protection change invalidates the TLB entry: next touch misses.
	start = clk.Now()
	if _, err := as.TouchRead(0x1000); err != nil {
		t.Fatal(err)
	}
	if d := clk.Now() - start; d != c.TLBMiss {
		t.Errorf("post-shootdown touch charged %v, want %v", d, c.TLBMiss)
	}

	start = clk.Now()
	as.Unmap(0x1000)
	if d := clk.Now() - start; d != c.PTEUnmap {
		t.Errorf("unmap charged %v, want %v", d, c.PTEUnmap)
	}
}

func TestCOWSharedFrameCopiesOnWrite(t *testing.T) {
	sys, clk := newSys()
	a := sys.NewAddrSpace("a")
	b := sys.NewAddrSpace("b")
	fn, _ := sys.Mem.Alloc()
	a.MapOwned(0x1000, fn, ReadWrite)
	if err := a.Write(0x1000, []byte("original")); err != nil {
		t.Fatal(err)
	}
	b.Map(0x1000, fn, ProtRead)
	a.SetCOW(0x1000)
	b.SetCOW(0x1000)

	start := clk.Now()
	if err := a.Write(0x1000, []byte("modified")); err != nil {
		t.Fatalf("COW write: %v", err)
	}
	d := clk.Now() - start
	min := sys.Cost.FaultTrap + sys.Cost.PageCopy
	if d < min {
		t.Errorf("COW write charged %v, want at least %v", d, min)
	}

	// b must still see the original.
	buf := make([]byte, 8)
	if err := b.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("COW leaked write to sharer: %q", buf)
	}
	if sys.Mem.Allocated() != 2 {
		t.Fatalf("expected a private copy, %d frames allocated", sys.Mem.Allocated())
	}
}

func TestCOWSoleOwnerSkipsCopy(t *testing.T) {
	sys, _ := newSys()
	a := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	a.MapOwned(0x1000, fn, ReadWrite)
	a.SetCOW(0x1000)
	if err := a.Write(0x1000, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if sys.Mem.Allocated() != 1 {
		t.Fatalf("sole-owner COW write allocated a copy: %d frames", sys.Mem.Allocated())
	}
}

func TestRegionFaultHandler(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	faults := 0
	r := &Region{
		Start: 0x100000,
		Pages: 4,
		Name:  "lazy",
		Handler: func(as *AddrSpace, va VA, write bool) error {
			faults++
			fn, err := sys.Mem.Alloc()
			if err != nil {
				return err
			}
			as.MapOwned(va.PageBase(), fn, ReadWrite)
			return nil
		},
	}
	if err := as.AddRegion(r); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(0x100000+100, []byte("lazily")); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults %d", faults)
	}
	// Second access: no fault.
	if err := as.Write(0x100000+200, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("warm access faulted: %d", faults)
	}
}

func TestRegionHandlerDeniesWrite(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	r := &Region{
		Start: 0x100000,
		Pages: 1,
		Name:  "deny",
		Handler: func(as *AddrSpace, va VA, write bool) error {
			return errors.New("denied by policy")
		},
	}
	as.AddRegion(r)
	err := as.Write(0x100000, []byte{1})
	var ae *AccessError
	if !errors.As(err, &ae) || !strings.Contains(ae.Cause.Error(), "denied by policy") {
		t.Fatalf("got %v", err)
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	if err := as.AddRegion(&Region{Start: 0x1000, Pages: 4, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRegion(&Region{Start: 0x3000, Pages: 4, Name: "b"}); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := as.AddRegion(&Region{Start: 0x5000, Pages: 1, Name: "c"}); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
	if r := as.FindRegion(0x3000); r == nil || r.Name != "a" {
		t.Fatalf("FindRegion(0x3000) = %v", r)
	}
	if r := as.FindRegion(0x9000); r != nil {
		t.Fatalf("FindRegion outside = %v", r)
	}
}

func TestAllocVAReuse(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	va1, err := as.AllocVA(4)
	if err != nil {
		t.Fatal(err)
	}
	va2, _ := as.AllocVA(4)
	if va1 == va2 {
		t.Fatal("overlapping VA allocations")
	}
	as.FreeVA(va1, 4)
	va3, _ := as.AllocVA(4)
	if va3 != va1 {
		t.Fatalf("freed range not reused: %#x vs %#x", uint64(va3), uint64(va1))
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	for i := 0; i < 5; i++ {
		fn, _ := sys.Mem.Alloc()
		as.MapOwned(VA(0x1000+i*machine.PageSize), fn, ReadWrite)
	}
	as.Destroy()
	if sys.Mem.Allocated() != 0 {
		t.Fatalf("%d frames leaked after Destroy", sys.Mem.Allocated())
	}
	if as.MappedPages() != 0 {
		t.Fatalf("%d PTEs survive Destroy", as.MappedPages())
	}
}

func TestMapReplacementReleasesOldFrame(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	f1, _ := sys.Mem.Alloc()
	f2, _ := sys.Mem.Alloc()
	as.MapOwned(0x1000, f1, ReadWrite)
	as.MapOwned(0x1000, f2, ReadWrite)
	if sys.Mem.Allocated() != 1 {
		t.Fatalf("old frame leaked: %d allocated", sys.Mem.Allocated())
	}
	if pte, _ := as.Lookup(0x1000); pte.Frame != f2 {
		t.Fatalf("mapping points at %d", pte.Frame)
	}
}

// TestMapOverSameFrame: Map over a mapping of the same frame, which holds
// the frame's only reference, keeps the frame mapped and allocated.
func TestMapOverSameFrame(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	free := sys.Mem.FreeFrames()
	as.MapOwned(0x1000, fn, ReadWrite)
	as.Map(0x1000, fn, ProtRead)
	if pte, ok := as.Lookup(0x1000); !ok || pte.Frame != fn || pte.Prot != ProtRead {
		t.Fatalf("mapping %+v (present %v), want frame %d read-only", pte, ok, fn)
	}
	if n := sys.Mem.RefCount(fn); n != 1 {
		t.Fatalf("frame refcount %d, want 1", n)
	}
	if sys.Mem.FreeFrames() != free {
		t.Fatalf("free frames %d, want %d: the frame went back on the free stack", sys.Mem.FreeFrames(), free)
	}
	if err := sys.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Charge(100)
	m.Charge(50)
	if m.Total != 150 {
		t.Fatalf("meter %v", m.Total)
	}
	if m.Take() != 150 || m.Total != 0 {
		t.Fatal("Take did not drain")
	}
}

func TestFrameExhaustionSurfacesInCOW(t *testing.T) {
	sys, _ := newSys()
	// Use up all frames.
	var last mem.FrameNum
	for {
		fn, err := sys.Mem.Alloc()
		if err != nil {
			break
		}
		last = fn
	}
	a := sys.NewAddrSpace("a")
	b := sys.NewAddrSpace("b")
	a.MapOwned(0x1000, last, ReadWrite)
	b.Map(0x1000, last, ProtRead)
	a.SetCOW(0x1000)
	if err := a.Write(0x1000, []byte{1}); err == nil {
		t.Fatal("COW with no free frames should fail")
	}
}

func TestUnmapSync(t *testing.T) {
	sys, clk := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	as.MapOwned(0x1000, fn, ReadWrite)
	if _, err := as.TouchRead(0x1000); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	if !as.UnmapSync(0x1000) {
		t.Fatal("UnmapSync should free the sole frame")
	}
	// Charged the full consistency cost, not the lazy unmap cost.
	if d := clk.Now() - start; d != sys.Cost.ProtChange {
		t.Fatalf("UnmapSync charged %v, want %v", d, sys.Cost.ProtChange)
	}
	if as.UnmapSync(0x1000) {
		t.Fatal("double UnmapSync claimed success")
	}
	if _, err := as.TouchRead(0x1000); err == nil {
		t.Fatal("read after UnmapSync succeeded")
	}
	if sys.Mem.Allocated() != 0 {
		t.Fatal("frame leaked")
	}
}

func TestAllocVAExhaustion(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	// Request a range bigger than the entire private area.
	pages := int((PrivateLimit-PrivateBase)/machine.PageSize) + 1
	if _, err := as.AllocVA(pages); err == nil {
		t.Fatal("oversized VA allocation accepted")
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{
		ProtNone:  "---",
		ProtRead:  "r--",
		ProtWrite: "-w-",
		ReadWrite: "rw-",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d -> %q, want %q", p, p.String(), want)
		}
	}
	if Prot(9).String() == "" {
		t.Error("unknown prot string empty")
	}
}
