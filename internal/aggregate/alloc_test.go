package aggregate

import "testing"

// Allocation gates for the steady-state editing path. Counts are Go heap
// allocations per cycle on contexts that have already served messages: a
// consumed message's slot goes back to its Ctx with its lists, and the
// next message reuses them. Handles and Pop's headers come from slabs,
// one allocation per 256 handles or 512 header bytes, which AllocsPerRun's
// whole count per run rounds away.

// skipUnderSanitizer skips a gate when fbsan is on: it saves canary bytes
// and re-walks every built DAG, allocating by design. The gates measure
// the production build.
func skipUnderSanitizer(t *testing.T, r *rig) {
	t.Helper()
	if r.mgr.SanitizerEnabled() {
		t.Skip("fbsan allocates by design")
	}
}

// TestSmallMessageAllocationFree: building a 64-byte message, pushing an
// 8-byte header, popping it again and freeing the result allocates nothing.
func TestSmallMessageAllocationFree(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		skipUnderSanitizer(t, r)
		data, hdr := pattern(64), pattern(8)
		cycle := func() {
			m, err := c.NewData(data)
			if err != nil {
				t.Fatal(err)
			}
			if m, err = c.Push(m, hdr); err != nil {
				t.Fatal(err)
			}
			if _, m, err = c.Pop(m, len(hdr)); err != nil {
				t.Fatal(err)
			}
			if err := m.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("NewData+Push+Pop+Free: %v allocs per cycle, want 0", n)
		}
	})
}

// TestPopHeaderIsCallers: a popped header is carved from the Ctx and never
// handed out again, so later Pops leave it as it was.
func TestPopHeaderIsCallers(t *testing.T) {
	bothModes(t, func(t *testing.T, r *rig, c *Ctx) {
		var hdrs [][]byte
		for i := 0; i < 40; i++ {
			m, err := c.NewData(pattern(64 + i))
			if err != nil {
				t.Fatal(err)
			}
			hdr, rest, err := c.Pop(m, 8+i%5)
			if err != nil {
				t.Fatal(err)
			}
			hdrs = append(hdrs, hdr)
			if err := rest.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		for i, hdr := range hdrs {
			if want := pattern(64 + i)[:8+i%5]; string(hdr) != string(want) || cap(hdr) != len(want) {
				t.Fatalf("header %d reads %x (cap %d), want %x", i, hdr, cap(hdr), want)
			}
		}
	})
}

// TestOpenAllocs: opening a transferred two-leaf DAG allocates only the
// view, whose lists it carries inline.
func TestOpenAllocs(t *testing.T) {
	r := newRig(t)
	skipUnderSanitizer(t, r)
	c := r.ctx(t, true, 2)
	m, err := c.NewData(pattern(64))
	if err != nil {
		t.Fatal(err)
	}
	if m, err = c.Push(m, pattern(8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Transfer(r.src, r.dst); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := Open(r.mgr, r.dst, m.RootVA()); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("Open: %v allocs, want <= 1", n)
	}
}

// TestFragmentAllocs: cutting a 64 KB message into 16 fragments with 15
// Splits, joining them back with 15 Joins and freeing the whole allocates
// nothing, in both storage modes.
func TestFragmentAllocs(t *testing.T) {
	for _, integrated := range []bool{false, true} {
		r := newRig(t)
		skipUnderSanitizer(t, r)
		c := r.ctx(t, integrated, 16)
		data := pattern(64 << 10)
		var parts [16]*Msg
		cycle := func() {
			rest, err := c.NewData(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range parts[:15] {
				if parts[i], rest, err = c.Split(rest, 4096); err != nil {
					t.Fatal(err)
				}
			}
			parts[15] = rest
			whole := parts[0]
			for _, p := range parts[1:] {
				if whole, err = c.Join(whole, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := whole.Free(r.src); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(50, cycle); n != 0 {
			t.Errorf("integrated=%v: 64 KB split into 16 and joined: %v allocs per cycle, want 0", integrated, n)
		}
	}
}
