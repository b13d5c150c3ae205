package vm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/simtime"
)

// pageVA is the address of virtual page vpn.
func pageVA(vpn uint64) VA { return VA(vpn << machine.PageShift) }

// TestDestroyReleasesInVPNOrder: Destroy returns frames to the pool's LIFO
// stack in VPN order whatever order they were mapped in, so the frames a
// later allocation gets (and whether they are still Zeroed) repeat from
// run to run. The pages straddle a leaf boundary.
func TestDestroyReleasesInVPNOrder(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	const n = 16
	var frames [n]mem.FrameNum
	for i := range frames {
		frames[i], _ = sys.Mem.Alloc()
	}
	for _, i := range []int{9, 3, 15, 0, 12, 6, 1, 14, 4, 10, 7, 2, 13, 8, 11, 5} {
		as.MapOwned(pageVA(leafPTEs-4+uint64(i)), frames[i], ReadWrite)
	}
	as.Destroy()
	for i := n - 1; i >= 0; i-- {
		if fn, _ := sys.Mem.Alloc(); fn != frames[i] {
			t.Fatalf("allocation %d got frame %d, want %d (page %d's)", n-1-i, fn, frames[i], i)
		}
	}
}

// TestVMHotPathAllocationFree: a warm translation, a translation that
// misses and evicts, and a Map into an existing leaf allocate nothing.
func TestVMHotPathAllocationFree(t *testing.T) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	const pages = machine.TLBEntries + 1
	fn, _ := sys.Mem.Alloc()
	for i := uint64(0); i < pages; i++ {
		as.Map(pageVA(0x100+i), fn, ReadWrite)
	}
	if _, err := as.Translate(pageVA(0x100), false); err != nil {
		t.Fatal(err)
	}
	hit := func() { _, _ = as.Translate(pageVA(0x100), false) }
	if n := testing.AllocsPerRun(100, hit); n != 0 {
		t.Errorf("warm Translate: %v allocs, want 0", n)
	}
	// Cycling over one page more than the TLB holds misses every time.
	i := uint64(0)
	miss := func() {
		_, _ = as.Translate(pageVA(0x100+i%pages), true)
		i++
	}
	for i < pages {
		miss()
	}
	_, before := sys.TLB.Stats()
	i = 0
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Errorf("evicting Translate: %v allocs, want 0", n)
	}
	if _, after := sys.TLB.Stats(); after-before != i {
		t.Fatalf("%d misses in %d evicting translations", after-before, i)
	}
	remap := func() { as.Map(pageVA(0x101), fn, ProtRead) }
	if n := testing.AllocsPerRun(100, remap); n != 0 {
		t.Errorf("Map into an existing leaf: %v allocs, want 0", n)
	}
}

// TestParallelVM runs Translate, Map, SetProt and Unmap from several
// goroutines over one System. Each worker maps pages of one shared address
// space, two workers to a page-table leaf so leaves are created and walked
// concurrently, and mirrors them read-only into its own private space. At
// quiescence the TLB has counted every translation and the page tables
// hold exactly the pages the last round left mapped. Run it under -race.
func TestParallelVM(t *testing.T) {
	const workers, pages, rounds = 4, 8, 150
	sys := NewSystem(machine.DecStation5000(), workers*pages, ClockSink{&simtime.Clock{}})
	shared := sys.NewAddrSpace("shared")
	priv := make([]*AddrSpace, workers)
	for w := range priv {
		priv[w] = sys.NewAddrSpace(fmt.Sprintf("priv%d", w))
	}
	var wg sync.WaitGroup
	for w := range priv {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := vmWorker(sys, shared, priv[w], uint64(1<<20+w*600), pages, rounds); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	hits, misses := sys.TLB.Stats()
	if want := uint64(workers * pages * rounds * 3); hits+misses != want || misses == 0 {
		t.Errorf("TLB counted %d hits + %d misses, want %d translations", hits, misses, want)
	}
	if want := uint64(workers * pages * rounds); sys.Violations != want {
		t.Errorf("%d violations, want %d", sys.Violations, want)
	}
	if got := shared.MappedPages(); got != workers*pages {
		t.Errorf("shared space maps %d pages, want %d", got, workers*pages)
	}
	for w, as := range priv {
		if got := as.MappedPages(); got != pages {
			t.Errorf("private space %d maps %d pages, want %d", w, got, pages)
		}
	}
	if got := sys.Mem.Allocated(); got != workers*pages {
		t.Errorf("%d frames allocated, want %d", got, workers*pages)
	}
}

// vmWorker maps, checks and unmaps pages [vpn0, vpn0+pages) of shared and
// the same pages of priv for rounds rounds, leaving the last round mapped.
// Each page costs three translations a round: a write through shared, a
// read back through priv, and a write refused after a downgrade.
func vmWorker(sys *System, shared, priv *AddrSpace, vpn0 uint64, pages, rounds int) error {
	buf := make([]byte, 8)
	for r := 0; r < rounds; r++ {
		for k := uint64(0); k < uint64(pages); k++ {
			va := pageVA(vpn0 + k)
			fn, err := sys.Mem.Alloc()
			if err != nil {
				return err
			}
			shared.MapOwned(va, fn, ReadWrite)
			priv.Map(va, fn, ProtRead)
			want := []byte(fmt.Sprintf("%04d%04d", r, k))
			if err := shared.Write(va+64, want); err != nil {
				return err
			}
			if err := priv.Read(va+64, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("page %d round %d read %q, want %q", k, r, buf, want)
			}
			shared.SetProt(va, ProtRead)
			var ae *AccessError
			if err := shared.Write(va, buf); !errors.As(err, &ae) {
				return fmt.Errorf("write after downgrade: %v", err)
			}
			if !shared.SetProt(va, ReadWrite) {
				return fmt.Errorf("page %d lost its mapping", k)
			}
			if r < rounds-1 && (shared.Unmap(va) || !priv.Unmap(va)) {
				return fmt.Errorf("page %d round %d: frame freed by the wrong unmap", k, r)
			}
		}
	}
	return nil
}

func BenchmarkTranslateHit(b *testing.B) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	fn, _ := sys.Mem.Alloc()
	as.MapOwned(pageVA(0x100), fn, ReadWrite)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Translate(pageVA(0x100), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateMiss cycles over one page more than the TLB holds, so
// every translation misses and evicts.
func BenchmarkTranslateMiss(b *testing.B) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	const pages = machine.TLBEntries + 1
	fn, _ := sys.Mem.Alloc()
	for i := uint64(0); i < pages; i++ {
		as.Map(pageVA(0x100+i), fn, ReadWrite)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Translate(pageVA(0x100+uint64(i%pages)), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite64K writes a 64 KB message over 16 mapped pages.
func BenchmarkWrite64K(b *testing.B) {
	sys, _ := newSys()
	as := sys.NewAddrSpace("a")
	const pages = 16
	for i := uint64(0); i < pages; i++ {
		fn, _ := sys.Mem.Alloc()
		as.MapOwned(pageVA(0x100+i), fn, ReadWrite)
	}
	data := make([]byte, pages*machine.PageSize)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Write(pageVA(0x100), data); err != nil {
			b.Fatal(err)
		}
	}
}
