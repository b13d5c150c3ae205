// Package fbufs is a faithful reimplementation-as-simulation of fast
// buffers (fbufs), the high-bandwidth cross-domain transfer facility of
// Druschel & Peterson (SOSP 1993), together with every substrate the
// paper's evaluation depends on: a byte-accurate simulated virtual memory
// system with protection domains and a software-refilled TLB, Mach-style
// IPC with proxy objects, an x-kernel protocol graph (UDP/IP, loopback,
// sliding-window test protocols), the Bellcore Osiris ATM adapter with its
// TurboChannel DMA model, and the baseline transfer mechanisms the paper
// compares against (copy, Mach copy-on-write, DASH page remapping).
//
// This package is the public facade: a System bundles one simulated host,
// and the type aliases re-export the core vocabulary. The quickstart:
//
//	sys := fbufs.New(4096)
//	src := sys.NewDomain("producer")
//	dst := sys.NewDomain("consumer")
//	path, _ := sys.NewPath("video", fbufs.CachedVolatile(), 4, src, dst)
//	buf, _ := path.Alloc()
//	buf.Write(src, 0, frame)
//	sys.Fbufs.Transfer(buf, src, dst)   // zero copies, zero mapping work
//	buf.Read(dst, 0, out)
//	sys.Fbufs.Free(buf, dst)
//	sys.Fbufs.Free(buf, src)            // recycled onto the path's free list
//
// All costs are charged in simulated time calibrated to the paper's
// DecStation 5000/200 measurements; sys.Now() reads the clock, and
// package fbufs/internal/bench regenerates the paper's tables and figures.
package fbufs

import (
	"fbufs/internal/aggregate"
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
	"fbufs/internal/xkernel"
)

// Re-exported vocabulary types. These are aliases, so values flow freely
// between the facade and the underlying packages.
type (
	// Domain is a simulated protection domain.
	Domain = domain.Domain
	// DataPath is a per-I/O-data-path fbuf allocator.
	DataPath = core.DataPath
	// Fbuf is a fast buffer.
	Fbuf = core.Fbuf
	// Options selects an fbuf optimization level.
	Options = core.Options
	// Msg is an immutable aggregate message (x-kernel style DAG).
	Msg = aggregate.Msg
	// Ctx is an allocation context for building and editing messages.
	Ctx = aggregate.Ctx
	// Time is simulated time in nanoseconds.
	Time = simtime.Time
	// Duration is a span of simulated time.
	Duration = simtime.Duration
	// Observer is the unified tracing + metrics handle (package obs).
	Observer = obs.Observer
	// Stats is the fbuf facility's counter snapshot.
	Stats = core.Stats
)

// Option-set constructors, named as in the paper's Table 1.
var (
	// CachedVolatile is the full-optimization configuration.
	CachedVolatile = core.CachedVolatile
	// Uncached is the volatile, uncached configuration.
	Uncached = core.Uncached
	// CachedNonVolatile caches but eagerly enforces immutability.
	CachedNonVolatile = core.CachedNonVolatile
	// UncachedNonVolatile is the plain-fbufs baseline.
	UncachedNonVolatile = core.UncachedNonVolatile
)

// PageSize is the simulated machine's page size (4 KB).
const PageSize = machine.PageSize

// System is one simulated shared-memory host: clock, VM, domains, the
// fbuf facility, and the protocol-stack environment.
type System struct {
	Clock   *simtime.Clock
	VM      *vm.System
	Domains *domain.Registry
	Fbufs   *core.Manager
	Env     *xkernel.Env
}

// New creates a host with a physical memory of up to frames page frames,
// using the calibrated DecStation 5000/200 cost profile. The count is a
// capacity: only the frames the host allocates cost Go memory.
func New(frames int) *System {
	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), frames, vm.ClockSink{Clock: clk})
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	mgr.EmptyLeafInit = aggregate.EmptyLeafImage
	env := xkernel.NewEnv(sys, mgr, reg)
	return &System{Clock: clk, VM: sys, Domains: reg, Fbufs: mgr, Env: env}
}

// Now returns the current simulated time.
func (s *System) Now() Time { return s.Clock.Now() }

// Observe attaches a fresh observer (event ring of eventCap entries plus a
// metrics registry) to the host and returns it. Existing domains and paths
// are labelled in the trace; layers emit through it from then on.
func (s *System) Observe(eventCap int) *Observer {
	o := obs.New(eventCap)
	o.SetNow(s.Clock.Now)
	s.VM.Obs = o
	s.Fbufs.RegisterTraceNames("")
	return o
}

// PublishMetrics writes the host's counters (fbuf facility, VM, TLB) into
// the observer's registry, ready for a JSON snapshot export. The observer's
// own ring statistics ride along, so an export that silently lost events to
// wraparound says so in its metrics.
func (s *System) PublishMetrics(o *Observer) {
	if o == nil {
		return
	}
	s.Fbufs.PublishMetrics(o.Metrics)
	s.VM.PublishMetrics(o.Metrics)
	o.PublishSelfMetrics()
}

// Kernel returns the trusted kernel domain.
func (s *System) Kernel() *Domain { return s.Domains.Kernel() }

// NewDomain creates a user-level protection domain attached to the fbuf
// region.
func (s *System) NewDomain(name string) *Domain {
	d := s.Domains.New(name)
	s.Fbufs.AttachDomain(d)
	return d
}

// NewPath creates an I/O data path with its own fbuf allocator. The first
// domain is the originator.
func (s *System) NewPath(name string, opts Options, fbufPages int, domains ...*Domain) (*DataPath, error) {
	return s.Fbufs.NewPath(name, opts, fbufPages, domains...)
}

// NewCtx creates a message-building context over a data path.
func (s *System) NewCtx(path *DataPath) (*Ctx, error) {
	return aggregate.NewCtx(s.Fbufs, path, path.Options().Integrated)
}

// OpenMsg reconstructs (with full validation) a message view from an
// integrated-transfer DAG root in the given domain.
func (s *System) OpenMsg(d *Domain, root vm.VA) (*Msg, error) {
	return aggregate.Open(s.Fbufs, d, root)
}

// Mbps converts a byte count over a simulated duration into megabits per
// second — the unit the paper reports.
func Mbps(bytes int64, elapsed Duration) float64 { return simtime.Mbps(bytes, elapsed) }
