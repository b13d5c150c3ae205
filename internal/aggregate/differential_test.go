package aggregate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite the differential hash in testdata")

const (
	diffSequences = 2000
	diffOps       = 32
)

// TestDifferentialGolden runs seeded random editing sequences and pins
// everything they observably do to one SHA-256 in testdata. Each sequence
// gets a fresh host with two domains; each domain edits through an
// integrated and a private Ctx over different allocators (cached volatile,
// cached non-volatile, uncached), so messages cross modes. The ops are
// NewData, NewTouched, WrapFbuf, Push, Pop, Split, ClipHead, ClipTail, Join
// (self-joins and joins of Opened views among them), Clone, Transfer then
// Open or ViewFor (partial transfers leave views whose data the receiver
// does not hold), Free and Ctx Close, on live and consumed messages and
// with out-of-range offsets. After every op the hash takes the error, each
// result's Len, Segs, RootVA and Fbufs order, the Refs of every live fbuf
// the sequence has met, the simulated clock and the event count; after
// every sequence, its trace events. Regenerate the hash only for a change
// that means to alter modelled behaviour:
// `go test ./internal/aggregate -run DifferentialGolden -update`.
func TestDifferentialGolden(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= diffSequences; seed++ {
		runDiffSequence(t, h, seed)
	}
	got := hex.EncodeToString(h.Sum(nil)) + "\n"
	golden := filepath.Join("testdata", "differential.sha256")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden hash (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("differential SHA-256 %s, want %s", got[:len(got)-1], bytes.TrimSpace(want))
	}
}

// held is a message, the index of the domain whose view it is, and its
// length when it was filed: a consumed message's Len reads 0, and edits
// draw their offsets from the length the message had.
type held struct {
	m *Msg
	d int
	n int
}

type diffSeq struct {
	mgr   *core.Manager
	clk   *simtime.Clock
	o     *obs.Observer
	doms  [2]*domain.Domain
	ctxs  [2][2]*Ctx // [domain][integrated]
	rng   *rand.Rand
	h     hash.Hash
	buf   []byte
	live  []held
	dead  []held
	met   []*core.Fbuf // every fbuf the sequence has seen, first-seen order
	isMet map[*core.Fbuf]bool
}

func runDiffSequence(t *testing.T, h hash.Hash, seed int64) {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 512, vm.ClockSink{Clock: clk})
	o := obs.New(1 << 12)
	o.SetNow(clk.Now)
	sys.Obs = o
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	mgr.EmptyLeafInit = EmptyLeafImage
	s := &diffSeq{mgr: mgr, clk: clk, o: o, rng: rand.New(rand.NewSource(seed)), h: h, isMet: map[*core.Fbuf]bool{}}
	s.doms = [2]*domain.Domain{reg.New("src"), reg.New("dst")}
	for _, d := range s.doms {
		mgr.AttachDomain(d)
	}
	newCtx := func(name string, opts core.Options, pages int, integrated bool, doms ...*domain.Domain) *Ctx {
		p, err := mgr.NewPath(name, opts, pages, doms...)
		if err != nil {
			t.Fatal(err)
		}
		p.SetQuota(64)
		c, err := NewCtx(mgr, p, integrated)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	src, dst := s.doms[0], s.doms[1]
	s.ctxs[0][1] = newCtx("src.int", core.CachedVolatile(), 1, true, src, dst)
	s.ctxs[0][0] = newCtx("src.priv", core.CachedNonVolatile(), 2, false, src, dst)
	s.ctxs[1][1] = newCtx("dst.int", core.CachedNonVolatile(), 1, true, dst, src)
	s.ctxs[1][0] = NewUncachedCtx(mgr, dst, core.Uncached(), 1, false)

	mark := o.Tracer.Total()
	for i := 0; i < diffOps; i++ {
		s.step()
	}
	if d := o.Tracer.Dropped(); d > 0 {
		t.Fatalf("seed %d: tracer dropped %d events", seed, d)
	}
	for _, e := range o.Tracer.Since(mark) {
		s.put(uint64(e.At), uint64(e.Kind), uint64(e.Domain), uint64(e.Path), e.Gen, uint64(e.Arg))
	}
}

// put hashes a run of numbers.
func (s *diffSeq) put(vs ...uint64) {
	s.buf = s.buf[:0]
	for _, v := range vs {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	}
	s.h.Write(s.buf)
}

// pick returns a message of domain d (any domain when d < 0): usually a
// live one, sometimes one already consumed. ok is false when there is none.
func (s *diffSeq) pick(d int) (held, bool) {
	pool := s.live
	if len(s.dead) > 0 && (len(s.live) == 0 || s.rng.Intn(8) == 0) {
		pool = s.dead
	}
	var cands []held
	for _, x := range pool {
		if d < 0 || x.d == d {
			cands = append(cands, x)
		}
	}
	if len(cands) == 0 {
		return held{}, false
	}
	return cands[s.rng.Intn(len(cands))], true
}

// size draws a message length of up to three data fbufs.
func (s *diffSeq) size(c *Ctx) int {
	if s.rng.Intn(4) == 0 {
		return s.rng.Intn(64)
	}
	return s.rng.Intn(3*c.DataFbufBytes() + 1)
}

// step runs one random op and hashes what it did.
func (s *diffSeq) step() {
	op := s.rng.Intn(14)
	if op == 13 {
		op = 10 // transfers twice as often, for more Opened views
	}
	x, ok := s.pick(-1)
	if !ok && op >= 3 {
		op = 0 // nothing to edit yet
	}
	if op == 10 {
		// Transfers run src to dst, for messages none of whose fbufs
		// dst holds yet: Open claims every reference its domain holds
		// to the DAG's fbufs, so the receiver must hold only what the
		// transfer grants.
		if x, ok = s.pick(0); !ok || x.m.s != nil && slices.ContainsFunc(x.m.Fbufs(), func(f *core.Fbuf) bool { return f.HeldBy(s.doms[1]) }) {
			op = 0
		}
	}
	c := s.ctxs[x.d][s.rng.Intn(2)]
	var err error
	var outs []*Msg
	var to int // domain of the outputs
	switch op {
	case 0, 1, 2:
		to = s.rng.Intn(2)
		c = s.ctxs[to][s.rng.Intn(2)]
		var m *Msg
		switch op {
		case 0:
			m, err = c.NewData(pattern(s.size(c)))
		case 1:
			m, err = c.NewTouched(s.size(c))
		case 2:
			var f *core.Fbuf
			if f, err = c.allocData(); err == nil {
				off, n := s.rng.Intn(f.Size()+2)-1, s.rng.Intn(f.Size()+2)-1
				if m, err = c.WrapFbuf(f, off, n); err != nil {
					_ = s.mgr.Free(f, c.Dom) // WrapFbuf took no reference; drop the allocator's
				}
			}
		}
		outs = []*Msg{m}
	case 3:
		to = x.d
		var m *Msg
		m, err = c.Push(x.m, pattern(1+s.rng.Intn(24)))
		outs = []*Msg{m}
	case 4:
		to = x.d
		var hdr []byte
		var m *Msg
		hdr, m, err = c.Pop(x.m, s.rng.Intn(x.n+3))
		s.put(uint64(len(hdr)))
		outs = []*Msg{m}
	case 5:
		to = x.d
		var a, b *Msg
		a, b, err = c.Split(x.m, s.rng.Intn(x.n+3)-1)
		outs = []*Msg{a, b}
	case 6, 7:
		to = x.d
		n := s.rng.Intn(x.n+3) - 1
		var m *Msg
		if op == 6 {
			m, err = c.ClipHead(x.m, n)
		} else {
			m, err = c.ClipTail(x.m, n)
		}
		outs = []*Msg{m}
	case 8:
		to = x.d
		y := x
		if s.rng.Intn(6) != 0 {
			if y, ok = s.pick(x.d); !ok {
				y = x
			}
		}
		var m *Msg
		m, err = c.Join(x.m, y.m) // Join(m, m) is refused and m stays live
		outs = []*Msg{m}
	case 9:
		to = x.d
		var m *Msg
		m, err = x.m.Clone(s.doms[x.d])
		outs = []*Msg{m}
	case 10:
		// Transfer all of x's fbufs, or some of them, to dst and
		// rebuild the message there.
		to = 1
		from, dest := s.doms[0], s.doms[1]
		// A consumed message's lists are not its own any more: transfer
		// it whole, which fails with ErrConsumed.
		if x.m.s == nil || s.rng.Intn(2) == 0 {
			err = x.m.Transfer(from, dest)
		} else {
			// x stays live, unedited, for the rest of the sequence:
			// its references keep alive the data of the view's that
			// dst was not granted.
			s.live = slices.DeleteFunc(s.live, func(h held) bool { return h.m == x.m })
			for _, f := range x.m.Fbufs() {
				if s.rng.Intn(2) == 0 {
					if err = s.mgr.Transfer(f, from, dest); err != nil {
						break
					}
				}
			}
		}
		if err == nil {
			var v *Msg
			if x.m.Integrated() {
				v, err = Open(s.mgr, dest, x.m.RootVA())
			} else {
				v, err = x.m.ViewFor(dest)
			}
			outs = []*Msg{v}
		}
	case 11:
		err = x.m.Free(s.doms[x.d])
	case 12:
		err = c.Close()
	}
	s.record(op, err, to, outs)
}

// record hashes one op's outcome and files its messages.
func (s *diffSeq) record(op int, err error, d int, outs []*Msg) {
	s.put(uint64(op))
	if err != nil {
		s.h.Write([]byte(err.Error()))
	}
	for _, m := range outs {
		if m == nil {
			s.put(0)
			continue
		}
		s.put(1, uint64(m.Len()), uint64(m.RootVA()), uint64(len(m.Segs())), uint64(len(m.Fbufs())))
		for _, sg := range m.Segs() {
			s.put(fbufBase(sg.F), uint64(sg.VA), uint64(sg.N))
			s.meet(sg.F)
		}
		for _, f := range m.Fbufs() {
			s.put(fbufBase(f))
			s.meet(f)
		}
		s.live = append(s.live, held{m, d, m.Len()})
	}
	for _, row := range s.ctxs {
		for _, c := range row {
			s.meet(c.cur)
		}
	}
	live := s.live[:0]
	for _, x := range s.live {
		if x.m.s == nil {
			s.dead = append(s.dead, x)
		} else {
			live = append(live, x)
		}
	}
	s.live = live
	for _, f := range s.met {
		if f.State() == core.StateLive {
			s.put(uint64(f.Base), uint64(f.Refs()))
		}
	}
	s.put(uint64(s.clk.Now()), s.o.Tracer.Total())
}

// meet adds f to the fbufs whose reference counts the hash follows.
func (s *diffSeq) meet(f *core.Fbuf) {
	if f != nil && !s.isMet[f] {
		s.isMet[f] = true
		s.met = append(s.met, f)
	}
}

func fbufBase(f *core.Fbuf) uint64 {
	if f == nil {
		return 0
	}
	return uint64(f.Base)
}
