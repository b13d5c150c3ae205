package aggregate

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// newFuzzRig builds the same environment as newRig but without a
// *testing.T, so FuzzOpen's seed construction (which runs under
// *testing.F) can share it with the fuzz body.
func newFuzzRig() *rig {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 8192, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	mgr.EmptyLeafInit = EmptyLeafImage
	r := &rig{clk: clk, sys: sys, reg: reg, mgr: mgr}
	r.src = reg.New("src")
	r.dst = reg.New("dst")
	mgr.AttachDomain(r.src)
	mgr.AttachDomain(r.dst)
	return r
}

// fuzzFbuf allocates a populated two-page fbuf on a volatile cached path,
// stamps the raw image into it (device-style, bypassing the MMU exactly
// as a hostile or buggy sender could), and transfers it to the receiver.
func fuzzFbuf(r *rig, image []byte) (*core.Fbuf, error) {
	opts := core.CachedVolatile()
	opts.Populate = true
	p, err := r.mgr.NewPath("fuzz", opts, 2, r.src, r.dst)
	if err != nil {
		return nil, err
	}
	f, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	n := len(image)
	if n > f.Size() {
		n = f.Size()
	}
	if n > 0 {
		if err := f.DMAWrite(0, image[:n]); err != nil {
			return nil, err
		}
	}
	if err := r.mgr.Transfer(f, r.src, r.dst); err != nil {
		return nil, err
	}
	return f, nil
}

// fuzzSeed is one (root selector, node image) seed input.
type fuzzSeed struct {
	name    string
	rootSel uint32
	image   []byte
}

// fuzzSeeds builds the canonical FuzzOpen seed corpus — one representative
// per walker verdict. The same inputs are checked into
// testdata/fuzz/FuzzOpen (regenerate with
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/aggregate)
// so other fuzz drivers share them without re-deriving the encoding.
func fuzzSeeds() ([]fuzzSeed, error) {
	base, err := func() (vm.VA, error) {
		r := newFuzzRig()
		fb, err := fuzzFbuf(r, nil)
		if err != nil {
			return 0, err
		}
		return fb.Base, nil
	}()
	if err != nil {
		return nil, err
	}

	leaf := func(img []byte, off int, dataVA vm.VA, n int) {
		encodeLeaf(img[off:off+nodeSize], dataVA, n)
	}
	pair := func(img []byte, off int, left, right vm.VA, total int) {
		encodePair(img[off:off+nodeSize], left, right, total)
	}

	empty := make([]byte, nodeSize) // all zeros decodes as the empty leaf

	valid := make([]byte, 256) // pair(leaf, pair(leaf, leaf)) chain
	leaf(valid, 32, base+512, 64)
	leaf(valid, 96, base+1024, 128)
	leaf(valid, 128, base+2048, 32)
	pair(valid, 64, base+96, base+128, 160)
	pair(valid, 0, base+32, base+64, 224)

	cyclic := make([]byte, 64) // root points back at itself
	pair(cyclic, 0, base, base+32, 0)

	wild := make([]byte, 64) // leaf data outside the fbuf region
	leaf(wild, 0, vm.VA(0x10), 64)

	unaligned := make([]byte, 64) // child pointer not 32-byte aligned
	pair(unaligned, 0, base+5, base+32, 0)

	badkind := []byte{7, 0, 0, 0}

	hugeleaf := make([]byte, 64) // length far past any chunk
	leaf(hugeleaf, 0, base, 1<<30)

	return []fuzzSeed{
		{"empty", 0, empty},
		{"valid", 0, valid},
		{"cyclic", 0, cyclic},
		{"wild-pointer", 0, wild},
		{"unaligned-child", 0, unaligned},
		{"bad-kind", 0, badkind},
		{"huge-leaf", 0, hugeleaf},
		{"unaligned-root", 5, valid},
		{"second-page-root", machine.PageSize + 32, empty},
	}, nil
}

// FuzzOpen throws arbitrary node images at the receiver-side DAG walker.
// The section 3.2.4 contract under test: traversal of any byte pattern
// must terminate (range checks, cycle detection, node-count bound) and
// either reject the DAG with an error or yield a message whose segments
// are internally consistent and fully readable by the receiver. The
// pooled Ctx.Open must agree with the one-shot Open on every input, in a
// slot a longer view has left behind.
func FuzzOpen(f *testing.F) {
	seeds, err := fuzzSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.rootSel, s.image)
	}

	f.Fuzz(func(t *testing.T, rootSel uint32, image []byte) {
		r := newFuzzRig()
		fb, err := fuzzFbuf(r, image)
		if err != nil {
			t.Fatal(err)
		}
		rootVA := fb.Base + vm.VA(rootSel%uint32(fb.Size()))

		// c's pool holds a slot a 40-segment view left behind: its lists
		// keep their entries past length 0.
		c := &Ctx{Mgr: r.mgr, Dom: r.dst}
		stale := &slot{home: c, segs: make([]Seg, 40), fbufs: make([]*core.Fbuf, 40)}
		for i := range stale.segs {
			stale.segs[i] = Seg{F: fb, VA: fb.Base + vm.VA(16*i), N: 16}
			stale.fbufs[i] = fb
		}
		stale.segs, stale.fbufs = stale.segs[:0], stale.fbufs[:0]
		c.pool = append(c.pool, stale)
		m, err := Open(r.mgr, r.dst, rootVA)
		pm, perr := c.Open(rootVA)
		if fmt.Sprint(perr) != fmt.Sprint(err) {
			t.Fatalf("pooled Open: %v, one-shot Open: %v", perr, err)
		}
		if err != nil {
			return // rejected adversarial DAG: the defended outcome
		}
		if pm.Len() != m.Len() || !slices.Equal(pm.Segs(), m.Segs()) || !slices.Equal(pm.Fbufs(), m.Fbufs()) {
			t.Fatalf("pooled Open: Len %d, Segs %v, Fbufs %v; one-shot Open: Len %d, Segs %v, Fbufs %v",
				pm.Len(), pm.Segs(), pm.Fbufs(), m.Len(), m.Segs(), m.Fbufs())
		}
		// Accepted: the resulting message must be internally consistent.
		total := 0
		for i, s := range m.Segs() {
			if s.N < 0 {
				t.Fatalf("seg %d has negative length %d", i, s.N)
			}
			total += s.N
			if s.F != nil && s.N > 0 &&
				(!s.F.Contains(s.VA) || !s.F.Contains(s.VA+vm.VA(s.N-1))) {
				t.Fatalf("seg %d [%#x,+%d) escapes its fbuf", i, uint64(s.VA), s.N)
			}
		}
		if total != m.Len() {
			t.Fatalf("segment lengths sum to %d, Len() = %d", total, m.Len())
		}
		// Every accepted byte must be readable by the receiver — dangling
		// references appear as absence of data, never as a fault.
		data, err := m.ReadAll(r.dst)
		if err != nil {
			t.Fatalf("accepted DAG unreadable: %v", err)
		}
		if len(data) != m.Len() {
			t.Fatalf("ReadAll returned %d bytes, Len() = %d", len(data), m.Len())
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzOpen in the Go fuzzing corpus-file format. It only
// writes when WRITE_FUZZ_CORPUS=1 is set; otherwise it verifies the
// checked-in files are present and in sync with fuzzSeeds().
func TestWriteSeedCorpus(t *testing.T) {
	seeds, err := fuzzSeeds()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpen")
	if os.Getenv("WRITE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\nuint32(%d)\n[]byte(%q)\n", s.rootSel, s.image)
			if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, s := range seeds {
		data, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			t.Fatalf("seed corpus file missing (regenerate with WRITE_FUZZ_CORPUS=1): %v", err)
		}
		want := fmt.Sprintf("go test fuzz v1\nuint32(%d)\n[]byte(%q)\n", s.rootSel, s.image)
		if string(data) != want {
			t.Errorf("corpus file %s out of sync with fuzzSeeds(); regenerate with WRITE_FUZZ_CORPUS=1", s.name)
		}
	}
}
