package netsim

import (
	"runtime"
	"testing"

	"fbufs/internal/protocols"
)

// TestBulkSteadyStateAllocs runs Figure 5's 1 MB user-user point and counts
// the Go heap allocations per delivered message over a fixed window after
// warm-up. A warm PDU allocates nothing in osiris, netsim or the
// scheduler: its wire buffer is a recycled spare and its receive interrupt
// reuses a record, so what remains is aggregate's slab carves, IP's
// fragment edits and each crossing's view. Once the run has drained, the
// drivers hold no spare wire buffers.
func TestBulkSteadyStateAllocs(t *testing.T) {
	const warm, window = 16, 64
	e, err := NewE2E(Config{Placement: UserUser, Opts: cachedVolatile(),
		PDUBytes: 16*1024 + protocols.UDPHeaderBytes, MsgBytes: 1 << 20,
		Count: warm + window, Window: 8})
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
	per := float64(m1.Mallocs-m0.Mallocs) / window
	t.Logf("%.2f allocations per message", per)
	if per > 90 {
		t.Errorf("%.1f allocations per message, want at most 90", per)
	}
	for _, h := range []*Host{e.A, e.B} {
		if n := h.Driver.Spares(); n != 0 {
			t.Errorf("host %s: driver holds %d spare wire buffers after Run, want 0", h.Name, n)
		}
	}
}
