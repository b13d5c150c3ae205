package xfer

import (
	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/obs"
)

// AdaptiveStats counts the facility's path decisions. FastHops and
// CopyHops partition successful hops; Episodes counts fast→copy
// transitions (fbuf allocation failed) and Recoveries counts copy→fast
// transitions (a probe allocation succeeded after reclaim).
// ProbeFailures counts degraded-mode probes whose allocation failed
// again — each one doubles the backoff interval.
type AdaptiveStats struct {
	FastHops      uint64
	CopyHops      uint64
	Episodes      uint64
	Recoveries    uint64
	ProbeFailures uint64
}

// Degraded-mode probe tuning: each probe first tears down at most
// reclaimPerProbe idle chunks, and failed probes back the interval off to
// at most backoffCap times RetryEvery.
const (
	reclaimPerProbe = 1
	backoffCap      = 8
)

// Adaptive is the graceful-degradation facility: it rides the fbuf fast
// path until an allocation-exhaustion error (core.IsAllocFailure — path
// quota, fbuf region, or physical frame pool), then transparently falls
// back to the classic copy path, which needs no new frames because the
// Copier's buffers were pinned at setup. While degraded, every RetryEvery
// copy hops it nudges the cache with Manager.ReclaimIdle and re-probes the
// fbuf path; the first successful probe returns it to the fast path. Data
// keeps flowing through every episode — callers only see the stats and the
// EvCopyFallback/EvCopyRecover trace events.
//
// Non-allocation errors (dead domains, closed paths, protection faults)
// are not survivable by copying and propagate unchanged.
type Adaptive struct {
	fb  *FbufFacility
	cp  *Copier
	mgr *core.Manager

	// RetryEvery is the number of degraded hops between fast-path probes
	// (default 4). Each failed probe doubles the interval, up to
	// RetryEvery*backoffCap hops; entering degradation (and every
	// recovery) resets the interval to RetryEvery. A saturated manager
	// is thus probed ever more rarely instead of paying a reclaim plus a
	// doomed allocation every RetryEvery hops for the whole episode.
	RetryEvery int

	Stats AdaptiveStats

	degraded      bool
	sinceProbe    int
	probeInterval int // current backed-off interval (degraded mode only)
}

// NewAdaptive builds the facility. The copy path's buffers are allocated
// here, at setup — the degraded path must not itself need memory at the
// moment the system is out of it.
func NewAdaptive(mgr *core.Manager, src, dst *domain.Domain, opts core.Options, bytes int) (*Adaptive, error) {
	fb, err := NewFbuf(mgr, src, dst, opts, bytes)
	if err != nil {
		return nil, err
	}
	cp, err := NewCopier(mgr.Sys, src, dst, bytes)
	if err != nil {
		return nil, err
	}
	return &Adaptive{fb: fb, cp: cp, mgr: mgr, RetryEvery: 4}, nil
}

func (a *Adaptive) Name() string  { return "adaptive-" + a.fb.label }
func (a *Adaptive) MsgBytes() int { return a.fb.bytes }

// Degraded reports whether the facility is currently on the copy path.
func (a *Adaptive) Degraded() bool { return a.degraded }

// Path exposes the fast path's data path (nil for uncached options) so
// callers can attach tenant/quota/pinning policy to the connection.
func (a *Adaptive) Path() *core.DataPath { return a.fb.Path() }

// Hop performs one transfer on whichever path is currently live.
func (a *Adaptive) Hop() error {
	_, err := a.hop(nil)
	return err
}

// Send is Hop carrying a real payload; the returned bytes come from the
// receiver's side of whichever path ran, so callers can verify integrity
// across fallback episodes.
func (a *Adaptive) Send(payload []byte) ([]byte, error) {
	return a.hop(payload)
}

// hop runs the state machine. payload == nil means a word-touch hop.
func (a *Adaptive) hop(payload []byte) ([]byte, error) {
	if !a.degraded {
		out, err := a.fbufOnce(payload)
		if err == nil {
			a.Stats.FastHops++
			return out, nil
		}
		if !core.IsAllocFailure(err) {
			return nil, err
		}
		a.degraded = true
		a.sinceProbe = 0
		a.probeInterval = a.RetryEvery
		a.Stats.Episodes++
		a.emit(obs.EvCopyFallback)
	} else {
		a.sinceProbe++
		if a.sinceProbe >= a.probeInterval {
			a.sinceProbe = 0
			a.mgr.ReclaimIdle(reclaimPerProbe)
			out, err := a.fbufOnce(payload)
			if err == nil {
				a.degraded = false
				a.probeInterval = a.RetryEvery
				a.Stats.Recoveries++
				a.Stats.FastHops++
				a.emit(obs.EvCopyRecover)
				return out, nil
			}
			if !core.IsAllocFailure(err) {
				return nil, err
			}
			// Failed probe: back off exponentially so a saturated
			// manager is not hammered for the whole episode.
			a.Stats.ProbeFailures++
			a.probeInterval = min(2*a.probeInterval, a.RetryEvery*backoffCap)
		}
	}
	a.Stats.CopyHops++
	if payload == nil {
		return nil, a.cp.Hop()
	}
	return a.cp.Send(payload)
}

// Close tears down both underlying paths: the fbuf data path and the
// copier's kernel bounce buffer.
func (a *Adaptive) Close() {
	a.fb.Close()
	a.cp.Close()
}

func (a *Adaptive) fbufOnce(payload []byte) ([]byte, error) {
	if payload == nil {
		return nil, a.fb.Hop()
	}
	return a.fb.Send(payload)
}

func (a *Adaptive) emit(kind obs.EventKind) {
	if o := a.mgr.Sys.Obs; o != nil {
		o.Emit(kind, int(a.fb.src.ID), obs.NoTrack, 0, int64(a.fb.bytes))
	}
}
