package netsim

import (
	"runtime"
	"testing"

	"fbufs/internal/protocols"
)

// bulkConfig is Figure 5's 1 MB user-user point, perfbench's bulk workload
// at seed 1.
func bulkConfig(count int) Config {
	return Config{Placement: UserUser, Opts: cachedVolatile(),
		PDUBytes: 16*1024 + protocols.UDPHeaderBytes, MsgBytes: 1 << 20,
		Count: count, Window: 8}
}

// smallConfig is perfbench's small workload at seed 1: 64 B messages,
// user-netserver-user placement, the ring data plane.
func smallConfig(count int) Config {
	return Config{Placement: UserNetserverUser, UseRings: true, Opts: cachedVolatile(),
		PDUBytes: 16*1024 + protocols.UDPHeaderBytes, MsgBytes: 64,
		Count: count, Window: 8}
}

// steadyAllocs runs the rig cfg builds and returns the Go heap allocations
// per delivered message over the window deliveries after the first warm.
func steadyAllocs(t *testing.T, cfg Config, warm, window int) (float64, *E2E) {
	t.Helper()
	cfg.Count = warm + window
	e, err := NewE2E(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.A.Mgr.SanitizerEnabled() {
		t.Skip("fbsan allocates by design")
	}
	var m0, m1 runtime.MemStats
	deliver := e.B.Test.OnDeliver
	n := 0
	e.B.Test.OnDeliver = func(k int) {
		n++
		switch n {
		case warm:
			runtime.ReadMemStats(&m0)
		case warm + window:
			runtime.ReadMemStats(&m1)
		}
		deliver(k)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(window)
	t.Logf("%.2f allocations per message", per)
	return per, e
}

// TestBulkSteadyStateAllocs runs Figure 5's 1 MB user-user point and counts
// the Go heap allocations per delivered message over a fixed window after
// warm-up. A warm PDU allocates nothing in osiris, netsim or the
// scheduler: its wire buffer is a recycled spare and its receive interrupt
// reuses a record. Aggregate recycles message slots, so IP's fragment
// edits and each crossing's view allocate nothing either; what remains is
// slab refills for Pop's headers and for message handles, about 4.4 per
// message. Once the run has drained, the drivers hold no spare wire
// buffers.
func TestBulkSteadyStateAllocs(t *testing.T) {
	per, e := steadyAllocs(t, bulkConfig(0), 16, 64)
	if per > 5 {
		t.Errorf("%.1f allocations per message, want at most 5", per)
	}
	for _, h := range []*Host{e.A, e.B} {
		if n := h.Driver.Spares(); n != 0 {
			t.Errorf("host %s: driver holds %d spare wire buffers after Run, want 0", h.Name, n)
		}
	}
}

// TestSmallSteadyStateAllocs counts the same for perfbench's small
// workload, where each message crosses four proxies and is pushed and
// popped through UDP and IP on both hosts. The proxies open their views
// in slots of their receiving domains' Ctxs, and every layer's edits
// reuse slots, so a message allocates a fraction of one handle and header
// slab refill, about 0.2.
func TestSmallSteadyStateAllocs(t *testing.T) {
	if per, _ := steadyAllocs(t, smallConfig(0), 512, 2048); per > 1 {
		t.Errorf("%.2f allocations per message, want at most 1", per)
	}
}

// TestNewE2EHeap bounds the Go heap that building the bulk rig allocates.
// Each host's physical memory holds up to 32,768 frames, but its frame
// table grows with use, so the build allocates about 42 KB for the rig's
// own structures and nothing in proportion to the pool's size.
func TestNewE2EHeap(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e, err := NewE2E(bulkConfig(2))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if e.A.Mgr.SanitizerEnabled() {
		t.Skip("fbsan allocates by design")
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("building the bulk rig allocated %d B", got)
	if got > 256<<10 {
		t.Errorf("building the bulk rig allocated %d B, want at most %d", got, 256<<10)
	}
}

// BenchmarkNewE2E builds the bulk rig: two hosts with their domains, paths
// and protocol stacks.
func BenchmarkNewE2E(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewE2E(bulkConfig(2)); err != nil {
			b.Fatal(err)
		}
	}
}
