package machine

import (
	"math/rand"
	"slices"
	"testing"
)

// refTLB is the TLB as first written, a resident-key map beside a FIFO
// slice: the reference the indexed ring must match hit for hit.
type refTLB struct {
	capacity int
	present  map[tlbKey]struct{}
	order    []tlbKey // oldest first
}

func (t *refTLB) touch(k tlbKey) bool {
	if _, ok := t.present[k]; ok {
		return false
	}
	if len(t.order) >= t.capacity {
		delete(t.present, t.order[0])
		t.order = t.order[1:]
	}
	t.present[k] = struct{}{}
	t.order = append(t.order, k)
	return true
}

func (t *refTLB) invalidate(k tlbKey) {
	if _, ok := t.present[k]; !ok {
		return
	}
	delete(t.present, k)
	t.order = slices.DeleteFunc(t.order, func(e tlbKey) bool { return e == k })
}

func (t *refTLB) invalidateASID(asid int) {
	t.order = slices.DeleteFunc(t.order, func(e tlbKey) bool {
		if e.asid == asid {
			delete(t.present, e)
			return true
		}
		return false
	})
}

// resident lists the TLB's keys oldest first.
func resident(t *TLB) []tlbKey {
	out := make([]tlbKey, t.n)
	for q := range out {
		out[q] = t.keys[t.slot(q)]
	}
	return out
}

// TestTLBMatchesReference runs seeded sequences of Touch, Invalidate and
// InvalidateASID over every capacity from 1 to TLBEntries and checks each
// Touch result and the resident FIFO order against refTLB. Keys come from
// a pool a little larger than the capacity, over three ASIDs and VPNs on
// both sides of a 1,024-page leaf boundary, so hits, evictions, index
// collisions and removals from both ends of the ring all occur.
func TestTLBMatchesReference(t *testing.T) {
	const sequences, ops = 320, 400
	for seed := int64(0); seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + int(seed)%TLBEntries
		tlb := NewTLB(capacity)
		ref := &refTLB{capacity: capacity, present: map[tlbKey]struct{}{}}
		pool := capacity + 1 + rng.Intn(capacity+8)
		key := func() tlbKey {
			i := rng.Intn(pool)
			return tlbKey{asid: i % 3, vpn: 1<<32 + 1000 + uint64(i)}
		}
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(16); {
			case r < 11:
				k := key()
				if got, want := tlb.Touch(k.asid, k.vpn), ref.touch(k); got != want {
					t.Fatalf("seed %d op %d: Touch%v missed %v, reference %v", seed, op, k, got, want)
				}
			case r < 15:
				k := key()
				tlb.Invalidate(k.asid, k.vpn)
				ref.invalidate(k)
			default:
				asid := rng.Intn(4)
				tlb.InvalidateASID(asid)
				ref.invalidateASID(asid)
			}
			if got := resident(tlb); !slices.Equal(got, ref.order) {
				t.Fatalf("seed %d op %d: resident %v, reference %v", seed, op, got, ref.order)
			}
		}
	}
}
