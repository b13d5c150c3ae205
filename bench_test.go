// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and reports
// the headline *simulated* metric (sim-us/page or sim-Mb/s) alongside Go's
// wall-clock ns/op; the simulated metrics are the reproduction results and
// are independent of the machine running the tests.
//
//	go test -bench=. -benchmem
//
// The same experiments print in full via cmd/fbufbench.
package fbufs_test

import (
	"strconv"
	"testing"

	"fbufs"
	"fbufs/internal/bench"
	"fbufs/internal/core"
	"fbufs/internal/netsim"
	"fbufs/internal/protocols"
)

// BenchmarkTable1 regenerates Table 1 and reports the cached/volatile
// per-page cost (the paper's 3 us headline).
func BenchmarkTable1(b *testing.B) {
	var table *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, err := strconv.ParseFloat(table.Rows[0][1], 64); err == nil {
		b.ReportMetric(v, "sim-us/page")
	}
}

// BenchmarkFigure3 regenerates Figure 3 and reports cached/volatile
// throughput at 256 KB.
func BenchmarkFigure3(b *testing.B) {
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = bench.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bench.ReportMetric(fig, "fbufs, cached/volatile"), "sim-Mb/s")
}

// BenchmarkFigure4 regenerates the loopback experiment and reports the
// 3-domain cached throughput at 1 MB.
func BenchmarkFigure4(b *testing.B) {
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = bench.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bench.ReportMetric(fig, "3 domains, cached fbufs"), "sim-Mb/s")
}

// BenchmarkFigure5 regenerates the cached/volatile end-to-end experiment
// and reports user-user throughput at 1 MB (the paper's 285 Mb/s ceiling).
func BenchmarkFigure5(b *testing.B) {
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = bench.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bench.ReportMetric(fig, "user-user"), "sim-Mb/s")
}

// BenchmarkFigure6 regenerates the uncached/non-volatile end-to-end
// experiment and reports user-user throughput at 1 MB.
func BenchmarkFigure6(b *testing.B) {
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = bench.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bench.ReportMetric(fig, "user-user"), "sim-Mb/s")
}

// BenchmarkCPULoadTable regenerates the section 4 CPU-load table.
func BenchmarkCPULoadTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.CPULoad(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks, one per design choice DESIGN.md calls out.

func BenchmarkAblationOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationOptimizations(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationClearing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationClearing(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIntegrated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationIntegrated(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFreeListDiscipline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationFreeListDiscipline(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSharedLibraries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationSharedLibraries(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBusContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationBusContention(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPDUSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationPDUSize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationWindow(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real-implementation micro-benchmarks ---
//
// Beyond the simulated metrics, these measure the actual Go implementation
// overhead of the hot paths (wall-clock ns/op), useful when evolving the
// library itself.

// BenchmarkRealCachedVolatileHop measures one alloc/write/transfer/read/
// free cycle through the real mechanism code.
func BenchmarkRealCachedVolatileHop(b *testing.B) {
	sys := fbufs.New(1024)
	src := sys.NewDomain("src")
	dst := sys.NewDomain("dst")
	path, err := sys.NewPath("bench", fbufs.CachedVolatile(), 4, src, dst)
	if err != nil {
		b.Fatal(err)
	}
	word := []byte{1, 2, 3, 4}
	buf := make([]byte, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := path.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Write(src, 0, word); err != nil {
			b.Fatal(err)
		}
		if err := sys.Fbufs.Transfer(f, src, dst); err != nil {
			b.Fatal(err)
		}
		if err := f.Read(dst, 0, buf); err != nil {
			b.Fatal(err)
		}
		if err := sys.Fbufs.Free(f, dst); err != nil {
			b.Fatal(err)
		}
		if err := sys.Fbufs.Free(f, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealAggregateOps measures DAG editing throughput.
func BenchmarkRealAggregateOps(b *testing.B) {
	sys := fbufs.New(4096)
	src := sys.NewDomain("src")
	path, err := sys.NewPath("bench", fbufs.CachedVolatile(), 4, src)
	if err != nil {
		b.Fatal(err)
	}
	path.SetQuota(64)
	ctx, err := sys.NewCtx(path)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ctx.NewData(data)
		if err != nil {
			b.Fatal(err)
		}
		h, err := ctx.Push(m, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			b.Fatal(err)
		}
		a, rest, err := ctx.Split(h, 5000)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(src); err != nil {
			b.Fatal(err)
		}
		if err := rest.Free(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealLoopbackStack measures a full 3-domain UDP/IP loopback
// message through the real protocol code.
func BenchmarkRealLoopbackStack(b *testing.B) {
	sys := fbufs.New(1 << 14)
	src := sys.NewDomain("app")
	net := sys.NewDomain("netserver")
	sink := sys.NewDomain("receiver")
	s, err := protocols.NewLoopbackStack(sys.Env, protocols.StackConfig{
		Src: src, Net: net, Sink: sink,
		Opts:     core.CachedVolatile(),
		PDUBytes: 4096 + protocols.UDPHeaderBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(65536); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Sink.ReceivedBytes)/float64(b.N), "bytes/msg")
}

// BenchmarkRealEndToEnd measures a full two-host simulated transfer.
func BenchmarkRealEndToEnd(b *testing.B) {
	var res netsim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = netsim.Run(netsim.Config{
			Placement: netsim.UserUser,
			Opts:      core.CachedVolatile(),
			PDUBytes:  16 * 1024,
			MsgBytes:  256 * 1024,
			Count:     5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ThroughputMbps, "sim-Mb/s")
}

// --- Parallel micro-benchmarks (wall-clock, machine-dependent) ---
//
// These exercise the data-plane hot paths with real goroutines: every
// goroutine hammers ONE shared path. Run with -race in CI's smp job. The
// committed SMP numbers come from the deterministic harness behind
// `fbufbench -exp smp` instead.

// BenchmarkParallelMagazineAllocFree measures alloc/free cycles where each
// goroutine owns a private magazine — steady state touches no shared lock.
func BenchmarkParallelMagazineAllocFree(b *testing.B) {
	sys := fbufs.New(1 << 14)
	src := sys.NewDomain("src")
	dst := sys.NewDomain("dst")
	path, err := sys.NewPath("bench", fbufs.CachedVolatile(), 1, src, dst)
	if err != nil {
		b.Fatal(err)
	}
	depot := path.EnableDepot(0, 0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mag := depot.NewMagazine()
		defer mag.Drain()
		for pb.Next() {
			f, err := mag.Alloc()
			if err != nil {
				b.Error(err)
				return
			}
			if err := mag.Free(f, src); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelGlobalAllocFree is the shared-lock baseline: the same
// cycle through the path free list, every op serialized on the path lock.
func BenchmarkParallelGlobalAllocFree(b *testing.B) {
	sys := fbufs.New(1 << 14)
	src := sys.NewDomain("src")
	dst := sys.NewDomain("dst")
	path, err := sys.NewPath("bench", fbufs.CachedVolatile(), 1, src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f, err := path.Alloc()
			if err != nil {
				b.Error(err)
				return
			}
			if err := sys.Fbufs.Free(f, src); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelTransfer measures the transfer/dup/free reference flow
// under goroutine concurrency — the atomic Fbuf state machine's hot path.
func BenchmarkParallelTransfer(b *testing.B) {
	sys := fbufs.New(1 << 14)
	src := sys.NewDomain("src")
	dst := sys.NewDomain("dst")
	path, err := sys.NewPath("bench", fbufs.CachedVolatile(), 1, src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f, err := path.Alloc()
			if err != nil {
				b.Error(err)
				return
			}
			if err := sys.Fbufs.Transfer(f, src, dst); err != nil {
				b.Error(err)
				return
			}
			if err := sys.Fbufs.Free(f, dst); err != nil {
				b.Error(err)
				return
			}
			if err := sys.Fbufs.Free(f, src); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Aggregate allocation benchmarks ---
//
// BenchmarkAggregateSteadyState measures the steady-state Go allocations
// of the aggregate editing path (NewData, Push, Split, Free): run with
// -benchmem and read allocs/op.

func BenchmarkAggregateSteadyState(b *testing.B) {
	sys := fbufs.New(4096)
	src := sys.NewDomain("src")
	path, err := sys.NewPath("bench", fbufs.CachedVolatile(), 4, src)
	if err != nil {
		b.Fatal(err)
	}
	path.SetQuota(64)
	ctx, err := sys.NewCtx(path)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ctx.NewData(data)
		if err != nil {
			b.Fatal(err)
		}
		h, err := ctx.Push(m, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			b.Fatal(err)
		}
		a, rest, err := ctx.Split(h, 5000)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(src); err != nil {
			b.Fatal(err)
		}
		if err := rest.Free(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVCILocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationVCILocality(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCPUMemoryGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationCPUMemoryGap(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReliableTransport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationReliableTransport(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationChecksum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationChecksum(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDomainChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationDomainChain(); err != nil {
			b.Fatal(err)
		}
	}
}
