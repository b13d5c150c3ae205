package core

import (
	"sync"
	"sync/atomic"

	"fbufs/internal/mem"
)

// Epoch-based frame reclamation: ReclaimIdle and the teardown paths
// (domainDied, ClosePath, EvictPath) no longer return physical frames to
// mem inline. Instead a frame whose last fbuf reference is dropped is
// *parked*, stamped with the current epoch, and only handed back to mem by
// AdvanceEpoch once every registered worker has passed the frame's retire
// epoch — a worker advertises its epoch on entry to a data-plane burst
// (Enter) and clears it on exit (Exit), so a reclaimer never waits on, and
// never races, an allocating worker.
//
// The scheme is deliberately conservative and deterministic:
//
//   - With no workers registered (every pre-existing workload), parking
//     never happens: deferFrameFree releases the frame immediately and the
//     facility is bit-identical to the eager design.
//   - Epochs only advance in AdvanceEpoch, and frames only retire there —
//     there is no background thread, so a given operation sequence parks
//     and retires identically on every run.
//   - Epoch numbers start at 1; a worker's advertised epoch of 0 means
//     quiescent. AdvanceEpoch retires a parked frame only when its stamp is
//     older than every advertised epoch (frames stamped in the epoch a
//     worker still occupies stay parked — the crash rule the conformance
//     model enforces: epoch-deferred frames reclaim only after the epoch
//     drains).
//
// epochState.mu is a leaf lock (DESIGN.md §10): parking happens under
// data-plane locks (the path lock, Fbuf.mu) and nothing is ever acquired
// while it is held — retirement pops the ready frames under it and returns
// them to mem after releasing it.
type epochState struct {
	mu     sync.Mutex
	parked []parkedFrame

	// current is the epoch counter, advanced only by AdvanceEpoch.
	current atomic.Uint64

	// workers is append-only (RegisterEpochWorker); reads take mu.
	workers []*EpochWorker

	// active flips on at the first RegisterEpochWorker and never off: the
	// single branch deferFrameFree pays on the eager path.
	active atomic.Bool
}

// parkedFrame is one frame awaiting its retire epoch.
type parkedFrame struct {
	frame mem.FrameNum
	epoch uint64
}

// EpochWorker is one registered data-plane worker's epoch advertisement.
type EpochWorker struct {
	m *Manager
	// pinned is the advertised epoch; 0 means quiescent.
	pinned atomic.Uint64
}

// RegisterEpochWorker registers a data-plane worker with the epoch reclaim
// protocol and returns its advertisement handle. Registering the first
// worker switches frame release from eager to epoch-deferred for the whole
// manager. Control-plane: register before the worker starts allocating.
func (m *Manager) RegisterEpochWorker() *EpochWorker {
	w := &EpochWorker{m: m}
	e := &m.epoch
	e.mu.Lock()
	if e.current.Load() == 0 {
		e.current.Store(1)
	}
	e.workers = append(e.workers, w)
	e.mu.Unlock()
	e.active.Store(true)
	return w
}

// Enter advertises the current epoch: frames parked from now on cannot
// retire until this worker Exits or advances past them. Re-entering while
// already entered just refreshes the advertisement.
func (w *EpochWorker) Enter() {
	e := &w.m.epoch
	for {
		cur := e.current.Load()
		w.pinned.Store(cur)
		// An AdvanceEpoch racing this store may have read the old
		// advertisement against the new epoch; re-check and re-pin so the
		// published epoch is never older than one the advancer has retired.
		if e.current.Load() == cur {
			return
		}
	}
}

// Exit clears the advertisement (the worker is quiescent).
func (w *EpochWorker) Exit() { w.pinned.Store(0) }

// Epoch returns the worker's advertised epoch (0 when quiescent).
func (w *EpochWorker) Epoch() uint64 { return w.pinned.Load() }

// EpochNow returns the current epoch (0 before any worker registers).
func (m *Manager) EpochNow() uint64 { return m.epoch.current.Load() }

// EpochPending returns the number of frames parked awaiting retirement.
func (m *Manager) EpochPending() int {
	m.epoch.mu.Lock()
	defer m.epoch.mu.Unlock()
	return len(m.epoch.parked)
}

// deferFrameFree drops one fbuf ownership reference on a frame. With no
// epoch workers registered it releases the frame immediately (the eager
// pre-depot behavior, bit-identical); otherwise the frame parks until
// AdvanceEpoch proves every worker has passed its stamp. Callers may hold
// any data-plane lock: epochState.mu is a leaf.
func (m *Manager) deferFrameFree(fn mem.FrameNum) {
	if !m.epoch.active.Load() {
		if freed := m.Sys.Mem.DecRef(fn); freed {
			m.Sys.Sink().Charge(m.Sys.Cost.FrameFree)
		}
		return
	}
	e := &m.epoch
	e.mu.Lock()
	e.parked = append(e.parked, parkedFrame{frame: fn, epoch: e.current.Load()})
	e.mu.Unlock()
	atomic.AddUint64(&m.contention.EpochParks, 1)
}

// AdvanceEpoch moves the facility to the next epoch and retires every
// parked frame whose stamp every worker has passed (stamp < the minimum
// advertised epoch; a quiescent worker constrains nothing). It returns the
// number of frames retired. Retirement order is park order, so runs are
// deterministic. Call it from a maintenance tick, after ReclaimIdle, or at
// quiescence to drain the parked list.
func (m *Manager) AdvanceEpoch() int {
	e := &m.epoch
	e.mu.Lock()
	next := e.current.Add(1)
	minPinned := next
	for _, w := range e.workers {
		if p := w.pinned.Load(); p != 0 && p < minPinned {
			minPinned = p
		}
	}
	var ready []parkedFrame
	keep := e.parked[:0]
	for _, pf := range e.parked {
		if pf.epoch < minPinned {
			ready = append(ready, pf)
		} else {
			keep = append(keep, pf)
		}
	}
	e.parked = keep
	e.mu.Unlock()
	// Frames return to mem outside the epoch lock (it stays a leaf).
	for _, pf := range ready {
		if freed := m.Sys.Mem.DecRef(pf.frame); freed {
			m.Sys.Sink().Charge(m.Sys.Cost.FrameFree)
		}
	}
	if n := len(ready); n > 0 {
		atomic.AddUint64(&m.contention.EpochRetires, uint64(n))
	}
	return len(ready)
}
