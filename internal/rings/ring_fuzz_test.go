package rings

import (
	"testing"

	"fbufs/internal/machine"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
)

// newFuzzPair mirrors newTestPair without a *testing.T so FuzzRing's seed
// registration can share it with the fuzz body (same split as FuzzDepot).
func newFuzzPair(capacity int) (*Pair, *simtime.Clock, error) {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), 64, vm.ClockSink{Clock: clk})
	pr, err := NewPair(sys, "fuzz", capacity, clk.Now, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	pr.DoorbellCost = sys.Cost.IPCLatency
	return pr, clk, nil
}

// FuzzRing drives byte-decoded op sequences over the raw index arithmetic
// and a live Pair in lockstep with reference FIFO models. The first byte
// picks the (power-of-two) capacity and whether the free-running indexes
// start just below the uint32 overflow boundary; the rest interleave
// pushes, pops, submits, drains, completions, completion drains, and
// virtual-clock advances. The contract under test: slot arithmetic under
// wrap-around, full/empty disambiguation with no wasted slot, strict FIFO
// order through both rings, and counter consistency — for any interleaving.
func FuzzRing(f *testing.F) {
	f.Add([]byte("0123456"))
	f.Add([]byte{0x02, 0x00, 0x00, 0x02, 0x01, 0x01, 0x03})       // fill, drain, refill
	f.Add([]byte{0x41, 0x00, 0x00, 0x00, 0x00, 0x02})             // wrap start, overflow push
	f.Add([]byte{0x05, 0x04, 0x04, 0x05, 0x04, 0x03, 0x03, 0x05}) // completion traffic
	f.Add([]byte{0x01, 0x00, 0x06, 0x02, 0x00, 0x06, 0x02, 0x00, 0x06, 0x02})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 600 {
			ops = ops[:600]
		}
		capacity := 1 << (ops[0] % 6) // 1..32 slots
		ix, err := newIndexes(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if ops[0]&0x40 != 0 {
			// Start the free-running indexes just below overflow so pushes
			// cross the uint32 boundary mid-sequence.
			start := ^uint32(0) - uint32(ops[0]%7)
			ix.head, ix.tail = start, start
		}
		pr, clk, err := newFuzzPair(capacity)
		if err != nil {
			t.Fatal(err)
		}

		slots := make([]int, capacity) // what we wrote into each raw slot
		var ixModel []int              // reference FIFO for the raw indexes
		var sqModel, cqModel []int     // reference FIFOs for the pair
		id := 0

		for i := 1; i < len(ops); i++ {
			op := ops[i]
			switch op % 7 {
			case 0: // raw push
				slot, ok := ix.push()
				if wantOK := len(ixModel) < capacity; ok != wantOK {
					t.Fatalf("op %d: push ok=%v, model ok=%v (occ %d/%d)", i, ok, wantOK, len(ixModel), capacity)
				}
				if ok {
					id++
					slots[slot] = id
					ixModel = append(ixModel, id)
				}
			case 1: // raw pop
				slot, ok := ix.pop()
				if wantOK := len(ixModel) > 0; ok != wantOK {
					t.Fatalf("op %d: pop ok=%v, model ok=%v", i, ok, wantOK)
				}
				if ok {
					if got, want := slots[slot], ixModel[0]; got != want {
						t.Fatalf("op %d: popped %d, model head %d (FIFO broken)", i, got, want)
					}
					ixModel = ixModel[1:]
				}
			case 2: // pair submit
				id++
				err := pr.Submit(Entry{Descriptors: id})
				if wantErr := len(sqModel) == capacity; (err == ErrFull) != wantErr {
					t.Fatalf("op %d: submit err=%v, model full=%v", i, err, wantErr)
				}
				if err == nil {
					sqModel = append(sqModel, id)
				}
			case 3: // pair drain (all, in order)
				want := sqModel
				sqModel = nil
				j := 0
				n, err := pr.Drain(func(e Entry) error {
					if j >= len(want) || e.Descriptors != want[j] {
						t.Fatalf("op %d: drain entry %d = %d, model %v", i, j, e.Descriptors, want)
					}
					j++
					return nil
				})
				if err != nil || n != len(want) {
					t.Fatalf("op %d: drain n=%d err=%v, model %d", i, n, err, len(want))
				}
			case 4: // pair complete
				id++
				err := pr.Complete(Completion{Notices: id})
				if wantErr := len(cqModel) == capacity; (err == ErrFull) != wantErr {
					t.Fatalf("op %d: complete err=%v, model full=%v", i, err, wantErr)
				}
				if err == nil {
					cqModel = append(cqModel, id)
				}
			case 5: // pair drain completions (all, in order)
				want := cqModel
				cqModel = nil
				j := 0
				n := pr.DrainCompletions(func(c Completion) {
					if j >= len(want) || c.Notices != want[j] {
						t.Fatalf("op %d: completion %d = %d, model %v", i, j, c.Notices, want)
					}
					j++
				})
				if n != len(want) {
					t.Fatalf("op %d: drained %d completions, model %d", i, n, len(want))
				}
			case 6: // advance the virtual clock (exercises spin vs doorbell)
				clk.Advance(simtime.US(int64(op) * 7))
			}

			// Occupancy, empty, and full must track the models exactly.
			if int(ix.occupancy()) != len(ixModel) || ix.empty() != (len(ixModel) == 0) || ix.full() != (len(ixModel) == capacity) {
				t.Fatalf("op %d: occ=%d empty=%v full=%v, model len %d/%d",
					i, ix.occupancy(), ix.empty(), ix.full(), len(ixModel), capacity)
			}
			sq, cq := pr.Depths()
			if sq != len(sqModel) || cq != len(cqModel) {
				t.Fatalf("op %d: pair depths %d/%d, model %d/%d", i, sq, cq, len(sqModel), len(cqModel))
			}
		}

		// Counter consistency at the end of any sequence.
		st := pr.Stats()
		sq, cq := pr.Depths()
		if st.Submits != st.Drained+uint64(sq) {
			t.Fatalf("Submits=%d != Drained=%d + depth %d", st.Submits, st.Drained, sq)
		}
		if st.Completions != st.CompletionsDrained+uint64(cq) {
			t.Fatalf("Completions=%d != drained completions + depth %d", st.Completions, cq)
		}
		if st.Doorbells+st.SpinHits > st.Submits+st.Completions {
			t.Fatalf("more transitions (%d+%d) than enqueues (%d+%d)",
				st.Doorbells, st.SpinHits, st.Submits, st.Completions)
		}
	})
}
