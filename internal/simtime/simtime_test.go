package simtime

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
	c.Advance(US(5))
	if c.Now() != 5000 {
		t.Fatalf("after 5us, Now=%d", c.Now())
	}
	c.AdvanceTo(4000) // past: ignored
	if c.Now() != 5000 {
		t.Fatalf("AdvanceTo past moved clock to %d", c.Now())
	}
	c.AdvanceTo(9000)
	if c.Now() != 9000 {
		t.Fatalf("AdvanceTo future: %d", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset: %d", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.At(10, func() { got = append(got, 4) }) // same time: schedule order
	s.Run(0)
	want := []int{1, 4, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		s.At(50, func() {}) // in the past; must run at 100, not rewind
	})
	s.Run(0)
	if s.Now() != 100 {
		t.Fatalf("clock went backwards: %v", s.Now())
	}
}

func TestSchedulerCascade(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(5, tick)
		}
	}
	s.After(5, tick)
	n := s.Run(0)
	if n != 10 || count != 10 {
		t.Fatalf("ran %d events, count %d", n, count)
	}
	if s.Now() != 50 {
		t.Fatalf("time %v, want 50", s.Now())
	}
}

func TestSchedulerRunBound(t *testing.T) {
	s := NewScheduler()
	var tick func()
	tick = func() { s.After(1, tick) } // infinite
	s.After(1, tick)
	if n := s.Run(100); n != 100 {
		t.Fatalf("bounded run executed %d", n)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i*10), func() { ran++ })
	}
	s.RunUntil(30)
	if ran != 3 {
		t.Fatalf("RunUntil(30) ran %d", ran)
	}
	if s.Now() != 30 {
		t.Fatalf("clock at %v", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending %d", s.Pending())
	}
}

func TestResourceSerializes(t *testing.T) {
	s := NewScheduler()
	cpu := NewResource(s, "cpu")
	var done []Time
	record := func() { done = append(done, s.Now()) }
	cpu.Exec(10, record)
	cpu.Exec(10, record) // queues behind the first
	s.Run(0)
	if len(done) != 2 || done[0] != 10 || done[1] != 20 {
		t.Fatalf("completions %v, want [10 20]", done)
	}
}

func TestResourceExecAt(t *testing.T) {
	s := NewScheduler()
	bus := NewResource(s, "bus")
	end := bus.ExecAt(100, 7, nil)
	if end != 107 {
		t.Fatalf("ExecAt end %v", end)
	}
	// Second transfer queues behind the first even if its ready time is
	// earlier.
	end = bus.ExecAt(50, 7, nil)
	if end != 114 {
		t.Fatalf("queued ExecAt end %v", end)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := NewScheduler()
	cpu := NewResource(s, "cpu")
	cpu.ResetStats()
	cpu.Exec(25, nil)
	s.At(100, func() {})
	s.Run(0)
	u := cpu.Utilization()
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization %v, want 0.25", u)
	}
	if cpu.BusyTime() != 25 {
		t.Fatalf("busy %v", cpu.BusyTime())
	}
}

func TestMbps(t *testing.T) {
	// 4096 bytes in 3 us -> 10922.67 Mb/s (the paper's cached/volatile
	// asymptote).
	got := Mbps(4096, US(3))
	if got < 10922 || got > 10923 {
		t.Fatalf("Mbps = %v", got)
	}
	if Mbps(100, 0) != 0 {
		t.Fatal("zero elapsed should yield 0")
	}
}

func TestMbpsPaperAnchors(t *testing.T) {
	cases := []struct {
		us   int64
		want float64
	}{
		{21, 1560}, // volatile row of Table 1
		{29, 1130}, // cached row of Table 1
	}
	for _, c := range cases {
		got := Mbps(4096, US(c.us))
		if got < c.want-5 || got > c.want+5 {
			t.Errorf("4KB page over %dus = %.0f Mb/s, paper says %.0f", c.us, got, c.want)
		}
	}
}

func TestSchedulerMonotonicProperty(t *testing.T) {
	// Property: for any set of event times, execution order is sorted and
	// the clock never decreases.
	f := func(times []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, tt := range times {
			at := Time(tt)
			s.At(at, func() { seen = append(seen, s.Now()) })
		}
		s.Run(0)
		prev := Time(-1)
		for _, at := range seen {
			if at < prev {
				return false
			}
			prev = at
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitMix64Reference pins the generator to splitmix64's reference
// outputs from state 0.
func TestSplitMix64Reference(t *testing.T) {
	var state uint64
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := SplitMix64(&state); got != want {
			t.Errorf("output %d = %#016x, want %#016x", i, got, want)
		}
	}
}

// TestSchedulerMatchesReference interleaves At, at times equal to now, in
// the future and in the past, with Step, and checks every step against a
// reference that runs the pending event with the least (at, seq), a past
// time counting as now.
func TestSchedulerMatchesReference(t *testing.T) {
	type ref struct {
		at  Time
		seq int
	}
	for seed := uint64(1); seed <= 50; seed++ {
		state := seed
		s := NewScheduler()
		var pending []ref
		ran := -1
		seq := 0
		for op := 0; op < 2000; op++ {
			r := SplitMix64(&state)
			if r%8 < 5 || len(pending) == 0 {
				now := s.Now()
				var at Time
				switch r / 8 % 4 {
				case 0:
					at = now
				case 1:
					at = now - Time(r>>16%50) - 1
				default:
					at = now + Time(r>>16%20)
				}
				id := seq
				seq++
				s.At(at, func() { ran = id })
				pending = append(pending, ref{at: max(at, now), seq: id})
				continue
			}
			next := 0
			for i, p := range pending {
				if p.at < pending[next].at || p.at == pending[next].at && p.seq < pending[next].seq {
					next = i
				}
			}
			want := pending[next]
			pending = append(pending[:next], pending[next+1:]...)
			if !s.Step() {
				t.Fatalf("seed %d op %d: Step ran nothing with %d pending", seed, op, len(pending)+1)
			}
			if ran != want.seq || s.Now() != want.at {
				t.Fatalf("seed %d op %d: ran event %d at %v, want %d at %v", seed, op, ran, s.Now(), want.seq, want.at)
			}
			if s.Pending() != len(pending) {
				t.Fatalf("seed %d op %d: %d pending, want %d", seed, op, s.Pending(), len(pending))
			}
		}
	}
}

// TestScheduleAllocationFree: once the heap's array has grown, scheduling
// and running an event allocates nothing.
func TestScheduleAllocationFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(Duration(i), fn)
	}
	cycle := func() {
		s.After(32, fn)
		s.Step()
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("At+Step: %v allocs per cycle, want 0", n)
	}
}

// BenchmarkSchedule times one At and one Step on a heap of 512 pending
// events.
func BenchmarkSchedule(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	var state uint64 = 1
	for i := 0; i < 512; i++ {
		s.After(Duration(SplitMix64(&state)%4096), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Duration(SplitMix64(&state)%4096), fn)
		s.Step()
	}
}
