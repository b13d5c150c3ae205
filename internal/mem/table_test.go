package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fbufs/internal/machine"
)

// eagerMem is the reference frame table: every entry built up front and a
// free stack pushed in reverse, so frame 0 goes first and then the most
// recently freed.
type eagerMem struct {
	frames    []eagerFrame
	free      []FrameNum
	allocated int
}

type eagerFrame struct {
	data   []byte
	refs   int
	zeroed bool
	free   bool
}

func newEager(n int) *eagerMem {
	e := &eagerMem{frames: make([]eagerFrame, n)}
	for i := n - 1; i >= 0; i-- {
		e.frames[i].free = true
		e.free = append(e.free, FrameNum(i))
	}
	return e
}

func (e *eagerMem) alloc() (FrameNum, error) {
	if len(e.free) == 0 {
		return NoFrame, ErrOutOfMemory
	}
	fn := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	f := &e.frames[fn]
	if f.data == nil {
		f.data = make([]byte, machine.PageSize)
	}
	f.free, f.refs = false, 1
	e.allocated++
	return fn, nil
}

func (e *eagerMem) decRef(fn FrameNum) {
	f := &e.frames[fn]
	if f.refs--; f.refs == 0 {
		f.free = true
		e.allocated--
		e.free = append(e.free, fn)
	}
}

// panicOf runs op and returns what it panicked with, or nil.
func panicOf(op func()) (v any) {
	defer func() { v = recover() }()
	op()
	return nil
}

// TestFrameOrderMatchesEager runs seeded sequences of Alloc, AddRef, DecRef,
// Zero and Write against the eager reference, over pool sizes on both sides
// of a chunk edge, and compares after every step: the frame each Alloc
// returns, exhaustion, the free and allocated counts, the invariants, and
// the touched frame's refcount, zero state and bytes. AddRef and DecRef of a
// free frame, freed or never allocated, must panic alike, and RefCount must
// read 0.
func TestFrameOrderMatchesEager(t *testing.T) {
	for _, n := range []int{1, chunkFrames - 1, chunkFrames, chunkFrames + 1, 3*chunkFrames + 7} {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) { runFrameOrder(t, n, seed) })
		}
	}
}

func runFrameOrder(t *testing.T, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pm, ref := New(n), newEager(n)
	var live []FrameNum // one entry per reference held
	// Each leg moves the allocated count toward a target; a target past n
	// runs the pool out. Over 2,000 steps most seeds run the pools of up to
	// 513 frames out, and every seed takes the largest past its first chunk.
	target := 0
	for step := 0; step < 2000; step++ {
		if ref.allocated == target || (target > n && len(ref.free) == 0 && rng.Intn(8) == 0) {
			target = rng.Intn(n + 1)
			if rng.Intn(4) == 0 {
				target = n + 1
			}
		}
		allocPct, decPct := 80, 6
		if ref.allocated > target {
			allocPct, decPct = 10, 76
		}
		touched, what := NoFrame, ""
		switch op := rng.Intn(100); {
		case op < allocPct:
			what = "Alloc"
			fn, err := pm.Alloc()
			want, wantErr := ref.alloc()
			if fn != want || err != wantErr {
				t.Fatalf("step %d: Alloc = %d, %v; eager table gives %d, %v", step, fn, err, want, wantErr)
			}
			if err == nil {
				live = append(live, fn)
				touched = fn
			}
		case op < allocPct+4:
			what = "free-frame misuse"
			fn := FrameNum(rng.Intn(n))
			if !ref.frames[fn].free {
				break
			}
			for _, m := range []struct {
				name string
				op   func()
			}{{"AddRef", func() { pm.AddRef(fn) }}, {"DecRef", func() { pm.DecRef(fn) }}} {
				want := fmt.Sprintf("mem: %s on free frame %d", m.name, fn)
				if got := panicOf(m.op); got != want {
					t.Fatalf("step %d: %s(%d) of a free frame panicked with %v, want %q", step, m.name, fn, got, want)
				}
			}
			if got := pm.RefCount(fn); got != 0 {
				t.Fatalf("step %d: RefCount(%d) of a free frame = %d", step, fn, got)
			}
		case len(live) == 0:
		case op < allocPct+8:
			what = "AddRef"
			touched = live[rng.Intn(len(live))]
			pm.AddRef(touched)
			ref.frames[touched].refs++
			live = append(live, touched)
		case op < allocPct+8+decPct:
			what = "DecRef"
			i := rng.Intn(len(live))
			touched = live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			freed := pm.DecRef(touched)
			ref.decRef(touched)
			if want := ref.frames[touched].free; freed != want {
				t.Fatalf("step %d: DecRef(%d) freed %v, eager table %v", step, touched, freed, want)
			}
		case op < 97:
			what = "Zero"
			touched = live[rng.Intn(len(live))]
			pm.Zero(touched)
			f := &ref.frames[touched]
			clear(f.data)
			f.zeroed = true
		default:
			what = "Write"
			touched = live[rng.Intn(len(live))]
			data := make([]byte, 1+rng.Intn(16))
			rng.Read(data)
			off := rng.Intn(machine.PageSize - len(data) + 1)
			pm.Write(touched, off, data)
			f := &ref.frames[touched]
			copy(f.data[off:], data)
			f.zeroed = false
		}
		if got, want := pm.FreeFrames(), len(ref.free); got != want {
			t.Fatalf("step %d (%s): FreeFrames = %d, eager table %d", step, what, got, want)
		}
		if got, want := pm.Allocated(), ref.allocated; got != want {
			t.Fatalf("step %d (%s): Allocated = %d, eager table %d", step, what, got, want)
		}
		if err := pm.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if touched == NoFrame {
			continue
		}
		f, want := pm.Frame(touched), &ref.frames[touched]
		if got := pm.RefCount(touched); got != want.refs {
			t.Fatalf("step %d (%s): frame %d refcount %d, eager table %d", step, what, touched, got, want.refs)
		}
		if f.Zeroed != want.zeroed || !bytes.Equal(f.Data, want.data) {
			t.Fatalf("step %d (%s): frame %d contents differ from the eager table (zeroed %v, want %v)",
				step, what, touched, f.Zeroed, want.zeroed)
		}
	}
	if pm.NumFrames() != n {
		t.Fatalf("NumFrames = %d, want %d", pm.NumFrames(), n)
	}
}

// TestParallelFrameAlloc has four workers allocate, write, read and free
// their own frames at once while the bump index crosses chunks; run it with
// -race. Frame and the frame contents are read without the pool lock, so a
// Frame that read the bump index would race with Alloc.
func TestParallelFrameAlloc(t *testing.T) {
	// Each worker alone holds peak frames at its peak, so the bump index
	// passes the first chunk edge in any schedule, and several when the
	// workers overlap.
	const workers, peak, rounds = 4, 3 * chunkFrames / 2, 3
	pm := New(workers * peak)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w byte) {
			defer wg.Done()
			var mine []FrameNum
			buf := make([]byte, 3)
			for r := 1; r <= rounds; r++ {
				for len(mine) < r*peak/rounds {
					fn, err := pm.Alloc()
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					pm.Write(fn, 0, []byte{w, byte(fn), byte(fn >> 8)})
					mine = append(mine, fn)
				}
				kept := mine[:0]
				for i, fn := range mine {
					pm.Read(fn, 0, buf)
					if f := pm.Frame(fn); buf[0] != w || buf[1] != byte(fn) || buf[2] != byte(fn>>8) || f.RefCount != 1 || f.Zeroed {
						t.Errorf("worker %d: frame %d holds %v, refcount %d, zeroed %v", w, fn, buf, f.RefCount, f.Zeroed)
						return
					}
					if i%2 == 1 {
						kept = append(kept, fn)
					} else if !pm.DecRef(fn) {
						t.Errorf("worker %d: DecRef(%d) kept the frame", w, fn)
						return
					}
				}
				mine = kept
			}
			for _, fn := range mine {
				pm.DecRef(fn)
			}
		}(byte(w))
	}
	wg.Wait()
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if pm.Allocated() != 0 || pm.FreeFrames() != pm.NumFrames() {
		t.Fatalf("after every worker freed its frames: %d allocated, %d of %d free",
			pm.Allocated(), pm.FreeFrames(), pm.NumFrames())
	}
	t.Logf("the bump index reached frame %d of %d", pm.next, pm.NumFrames())
}
