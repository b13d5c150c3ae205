// Package chaos is the fault-schedule harness: it drives the fbuf facility
// through seed-determined injected failures — allocation droughts, frame
// exhaustion, mapping retries, domain crashes, and lossy/partitioned links
// — and then proves the system converged: every fbuf recovered, no
// physical frame leaked, every payload delivered intact.
//
// Two scenarios cover the two halves of the failure model:
//
//   - RunLocal exercises the memory half on one host: an adaptive
//     transfer facility (fbuf fast path with graceful degradation to the
//     copy path) under allocation faults, plus crash-at-point domain
//     terminations with stranded references (paper section 3.3).
//   - RunNet exercises the network half: two hosts over the SWP transport
//     with per-link loss, corruption, duplication, reordering, and a timed
//     partition that exponential backoff must ride out.
//
// Both are deterministic functions of the seed: same seed, same report,
// byte for byte. The fbsan sanitizer is always enabled; any violation is
// returned as an error (the CLI exits non-zero).
package chaos

import (
	"bytes"
	"fmt"
	"strings"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/faults"
	"fbufs/internal/machine"
	"fbufs/internal/netsim"
	"fbufs/internal/obs"
	"fbufs/internal/simtime"
	"fbufs/internal/vm"
	"fbufs/internal/xfer"
)

// allPoints enumerates the fault points the local scenario drives.
var allPoints = []faults.Point{
	faults.FrameAlloc, faults.MapBuild, faults.ChunkGrant,
	faults.PathAlloc, faults.DomainCrash,
}

// payload returns the deterministic message body for one send.
func payload(seed int64, round, i, n int) []byte {
	p := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)*2654435761 + uint64(i)
	for j := range p {
		p[j] = byte(simtime.SplitMix64(&x) >> 56)
	}
	return p
}

// LocalResult summarizes one RunLocal schedule; Report is the full
// deterministic text.
type LocalResult struct {
	Report               string
	Sends, Crashes       int
	FastHops, CopyHops   uint64
	Episodes, Recoveries uint64
}

// NetResult summarizes one RunNet schedule; Report is the full
// deterministic text.
type NetResult struct {
	Report                          string
	Delivered                       int
	Retransmits, Backoffs, CRCDrops uint64
}

// RunLocal runs the single-host fault schedule for the seed and returns a
// deterministic report. A non-nil error means a robustness violation: a
// corrupted payload, a failed invariant or convergence check, a leaked
// frame, or a missing degradation/recovery episode.
func RunLocal(seed int64) (LocalResult, error) {
	const (
		rounds        = 6
		sendsPerRound = 40
		frames        = 2048
		msgBytes      = 2 * machine.PageSize
	)

	clk := &simtime.Clock{}
	sys := vm.NewSystem(machine.DecStation5000(), frames, vm.ClockSink{Clock: clk})
	plane := faults.NewPlane(seed)
	sys.FaultPlane = plane
	o := obs.New(4096)
	o.SetNow(clk.Now)
	sys.Obs = o
	reg := domain.NewRegistry(sys)
	mgr := core.NewManager(sys, reg)
	mgr.EnableSanitizer()
	baseline := sys.Mem.Allocated()

	var violations []string
	fail := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	clearRates := func() {
		for _, pt := range allPoints {
			plane.SetRate(pt, 0)
		}
	}
	// Background rates: frequent enough that every schedule sees droughts,
	// low enough that progress is the common case.
	setRates := func() {
		plane.SetRate(faults.FrameAlloc, 15000)
		plane.SetRate(faults.MapBuild, 20000)
		plane.SetRate(faults.ChunkGrant, 10000)
		plane.SetRate(faults.PathAlloc, 25000)
		plane.SetRate(faults.DomainCrash, 400000)
	}

	var totals struct {
		sends, crashes     int
		stats              xfer.AdaptiveStats
		stragglersReleased int
	}

	for r := 0; r < rounds && len(violations) == 0; r++ {
		clearRates() // facility setup is not a fault target
		src := reg.New(fmt.Sprintf("src%d", r))
		dst := reg.New(fmt.Sprintf("dst%d", r))
		a, err := xfer.NewAdaptive(mgr, src, dst, core.CachedVolatile(), msgBytes)
		if err != nil {
			fail("round %d: setup: %v", r, err)
			break
		}
		a.RetryEvery = 3

		// Round 0 carries the forced pressure episode: a total allocation
		// drought every seed must degrade through and recover from.
		if r == 0 {
			plane.SetRate(faults.PathAlloc, 1_000_000)
			for i := 0; i < 4; i++ {
				in := payload(seed, r, 1000+i, msgBytes)
				out, err := a.Send(in)
				if err != nil {
					fail("forced drought send %d: %v", i, err)
				} else if !bytes.Equal(out, in) {
					fail("forced drought send %d: payload corrupted", i)
				}
			}
			plane.SetRate(faults.PathAlloc, 0)
			for i := 0; i < 3*a.RetryEvery && a.Degraded(); i++ {
				in := payload(seed, r, 2000+i, msgBytes)
				if _, err := a.Send(in); err != nil {
					fail("post-drought send %d: %v", i, err)
				}
			}
			if a.Degraded() {
				fail("facility did not recover after the forced drought lifted")
			}
		}

		setRates()
		var stragglers []*core.Fbuf
		crashed := false
		for i := 0; i < sendsPerRound && !crashed && len(violations) == 0; i++ {
			in := payload(seed, r, i, msgBytes)
			out, err := a.Send(in)
			if err != nil {
				fail("round %d send %d: %v", r, i, err)
				break
			}
			if !bytes.Equal(out, in) {
				fail("round %d send %d: payload corrupted", r, i)
				break
			}
			totals.sends++
			if i%8 == 7 {
				mgr.DeliverNotices(dst, src)
				mgr.DeliverNotices(src, dst)
			}
			if i%10 == 9 {
				mgr.ReclaimIdle(4)
			}
			if i%16 == 15 {
				if err := mgr.CheckInvariants(); err != nil {
					fail("round %d send %d: invariants: %v", r, i, err)
					break
				}
			}
			// Crash roulette from round 1 on: park a live reference in the
			// transfer pipeline first, so a death exercises section 3.3's
			// stranded-reference recovery, not just quiescent teardown.
			if r > 0 && i%12 == 11 {
				fb, err := mgr.AllocUncached(src, 1, core.Uncached())
				if err == nil {
					if err := mgr.Transfer(fb, src, dst); err != nil {
						fail("round %d straggler transfer: %v", r, err)
						break
					}
					stragglers = append(stragglers, fb)
				} else if !core.IsAllocFailure(err) {
					fail("round %d straggler alloc: %v", r, err)
					break
				}
				victim := dst
				if i%24 == 23 {
					victim = src
				}
				if reg.CrashPoint(victim) {
					crashed = true
					totals.crashes++
				}
			}
		}

		// Release straggler references still held by live domains (a crash
		// released the victim's side through the death hook).
		clearRates()
		for _, fb := range stragglers {
			for _, d := range []*domain.Domain{src, dst} {
				if !d.Dead() && fb.HeldBy(d) {
					if err := mgr.Free(fb, d); err != nil {
						fail("round %d straggler free: %v", r, err)
					} else {
						totals.stragglersReleased++
					}
				}
			}
		}
		totals.stats.FastHops += a.Stats.FastHops
		totals.stats.CopyHops += a.Stats.CopyHops
		totals.stats.Episodes += a.Stats.Episodes
		totals.stats.Recoveries += a.Stats.Recoveries
		a.Close()
		if !src.Dead() {
			reg.Terminate(src)
		}
		if !dst.Dead() {
			reg.Terminate(dst)
		}
	}

	// Convergence: everything closed and terminated, so after final notice
	// drains nothing may remain live, queued, or leaked.
	clearRates()
	for mgr.ReclaimIdle(1024) > 0 {
	}
	if err := mgr.CheckConverged(); err != nil {
		fail("convergence: %v", err)
	}
	want := baseline + mgr.EmptyLeafFrames()
	got := sys.Mem.Allocated()
	if got != want {
		fail("frame leak: %d frames allocated, want %d (baseline %d + empty leaf %d)",
			got, want, baseline, mgr.EmptyLeafFrames())
	}
	if totals.stats.Episodes == 0 || totals.stats.Recoveries == 0 {
		fail("no fallback episode was exercised (episodes=%d recoveries=%d)",
			totals.stats.Episodes, totals.stats.Recoveries)
	}
	st := mgr.Snapshot()

	var b strings.Builder
	fmt.Fprintf(&b, "chaos local seed=%d\n", seed)
	fmt.Fprintf(&b, "  sends=%d fast=%d copy=%d episodes=%d recoveries=%d\n",
		totals.sends, totals.stats.FastHops, totals.stats.CopyHops,
		totals.stats.Episodes, totals.stats.Recoveries)
	fmt.Fprintf(&b, "  crashes=%d stragglers_released=%d alloc_failures=%d frames_reclaimed=%d map_retries=%d\n",
		totals.crashes, totals.stragglersReleased, st.AllocFailures, st.FramesReclaimed, sys.MapRetries)
	fmt.Fprintf(&b, "  frames: baseline=%d final=%d empty_leaf=%d\n", baseline, got, mgr.EmptyLeafFrames())
	b.WriteString(indent(plane.Report()))
	res := LocalResult{
		Sends:      totals.sends,
		Crashes:    totals.crashes,
		FastHops:   totals.stats.FastHops,
		CopyHops:   totals.stats.CopyHops,
		Episodes:   totals.stats.Episodes,
		Recoveries: totals.stats.Recoveries,
	}
	if len(violations) == 0 {
		b.WriteString("  converged: ok\n")
		res.Report = b.String()
		return res, nil
	}
	for _, v := range violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	res.Report = b.String()
	return res, fmt.Errorf("chaos local seed=%d: %d violations, first: %s",
		seed, len(violations), violations[0])
}

// RunNet runs the two-host lossy-link schedule for the seed: SWP over
// links that drop, corrupt, duplicate, and reorder PDUs, with a timed
// bidirectional partition mid-run. Every message must arrive intact and
// both hosts must converge.
func RunNet(seed int64) (NetResult, error) {
	const (
		count    = 40
		msgBytes = 16 << 10
	)

	plane := faults.NewPlane(seed)
	ab := plane.Link(netsim.LinkAB)
	ab.DropPerMillion = 30000
	ab.CorruptPerMillion = 15000
	ab.DupPerMillion = 10000
	ab.ReorderPerMillion = 15000
	ba := plane.Link(netsim.LinkBA)
	ba.DropPerMillion = 20000
	ba.DupPerMillion = 5000
	// A hard bidirectional partition early in the run; SWP's backoff must
	// ride it out and resynchronize.
	ab.AddPartition(simtime.MS(8), simtime.MS(18))
	ba.AddPartition(simtime.MS(8), simtime.MS(18))

	cfg := netsim.Config{
		Opts:     core.CachedVolatile(),
		PDUBytes: 16 << 10,
		MsgBytes: msgBytes,
		Count:    count,
		Window:   8,
		UseSWP:   true,
		Verify:   true,
		Faults:   plane,
		Frames:   8192,
	}
	e, err := netsim.NewE2E(cfg)
	if err != nil {
		return NetResult{}, fmt.Errorf("chaos net seed=%d: setup: %v", seed, err)
	}
	e.A.SWP.SeedJitter(uint64(seed)*2654435761 + 1)
	e.B.SWP.SeedJitter(uint64(seed)*40503 + 2)

	var violations []string
	fail := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	res, err := e.Run()
	if err != nil {
		fail("run: %v", err)
	} else {
		if res.Delivered != count {
			fail("delivered %d of %d messages", res.Delivered, count)
		}
		if e.B.Test.VerifyFailures != 0 {
			fail("%d payload verification failures", e.B.Test.VerifyFailures)
		}
		if want := uint64(count * msgBytes); e.B.Test.ReceivedBytes != want {
			fail("received %d bytes, want %d", e.B.Test.ReceivedBytes, want)
		}
		if e.A.SWP.Retransmits == 0 {
			fail("lossy partitioned link produced zero retransmissions")
		}
	}

	// Tear both stacks down, drain cross-domain notices, then check
	// convergence: nothing live, nothing queued, nothing leaked.
	for _, h := range []*netsim.Host{e.A, e.B} {
		if err := h.Shutdown(); err != nil {
			fail("host %s: shutdown: %v", h.Name, err)
			continue
		}
		doms := h.Reg.All()
		for _, replier := range doms {
			for _, caller := range doms {
				if replier != caller && !replier.Dead() && !caller.Dead() {
					h.Mgr.DeliverNotices(replier, caller)
				}
			}
		}
		if n := h.SWP.InflightCount(); n > 0 {
			fail("host %s: %d SWP messages still unacknowledged", h.Name, n)
		}
		if err := h.Mgr.CheckConverged(); err != nil {
			fail("host %s: %v", h.Name, err)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "chaos net seed=%d\n", seed)
	if err == nil {
		fmt.Fprintf(&b, "  delivered=%d/%d bytes=%d verify_failures=%d elapsed_us=%.0f\n",
			res.Delivered, count, e.B.Test.ReceivedBytes, e.B.Test.VerifyFailures,
			res.Elapsed.Microseconds())
	}
	fmt.Fprintf(&b, "  swp A: sent=%d retransmits=%d backoffs=%d  B: acks=%d\n",
		e.A.SWP.Sent, e.A.SWP.Retransmits, e.A.SWP.Backoffs, e.B.SWP.AcksSent)
	fmt.Fprintf(&b, "  crc_drops A=%d B=%d\n", e.A.Driver.CRCDrops, e.B.Driver.CRCDrops)
	b.WriteString(indent(plane.Report()))
	nres := NetResult{
		Delivered:   res.Delivered,
		Retransmits: e.A.SWP.Retransmits,
		Backoffs:    e.A.SWP.Backoffs,
		CRCDrops:    e.A.Driver.CRCDrops + e.B.Driver.CRCDrops,
	}
	if len(violations) == 0 {
		b.WriteString("  converged: ok\n")
		nres.Report = b.String()
		return nres, nil
	}
	for _, v := range violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	nres.Report = b.String()
	return nres, fmt.Errorf("chaos net seed=%d: %d violations, first: %s",
		seed, len(violations), violations[0])
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
