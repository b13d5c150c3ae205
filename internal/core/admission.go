package core

// Per-tenant admission control: weighted chunk-grant arbitration layered
// on top of the per-path quota.
//
// The per-path quota (DataPath.Quota) bounds how many chunks one endpoint
// can hold, but says nothing about aggregate pressure: a tenant opening
// many paths (a fan-out video server, a connection-churning web tier) can
// drain the shared region while staying inside every per-path limit. The
// Admission controller closes that gap. Paths are assigned to TenantClass
// groups (SetTenant); each class gets a weighted share of a global chunk
// budget, and a chunk grant that would push the class past its share is
// refused with ErrAdmission before the kernel is asked for the chunk.
//
// The refusal is a rung of the overload ladder (DESIGN.md §14):
// ErrAdmission counts as an alloc failure, so xfer.Adaptive degrades the
// affected transfers to the pre-pinned copy path instead of thrashing the
// allocator.
//
// Concurrency: class registration and SetAdmission are control-plane
// (before traffic starts, like NewPath); admit/release run on the data
// plane and are a single atomic add + compare, deterministic in the
// single-threaded simulator mode.

import "sync/atomic"

// Admission arbitrates chunk grants between weighted tenant classes.
type Admission struct {
	budget  int
	classes []*TenantClass
}

// TenantClass is one weighted admission class (e.g. "quick", "video",
// "net"). Its share of the global budget is budget*Weight/Σweights,
// recomputed as classes register.
type TenantClass struct {
	Name   string
	Weight int

	share   atomic.Int64  // chunks this class may hold
	inUse   atomic.Int64  // chunks currently held
	rejects atomic.Uint64 // grants refused
}

// NewAdmission creates a controller over a global budget of chunks.
func NewAdmission(budgetChunks int) *Admission {
	return &Admission{budget: budgetChunks}
}

// Class registers a weighted tenant class and rebalances every class's
// share: share_i = budget * w_i / Σw, floored at one chunk so no class
// starves outright. Control-plane: register before traffic starts.
func (a *Admission) Class(name string, weight int) *TenantClass {
	if weight < 1 {
		weight = 1
	}
	t := &TenantClass{Name: name, Weight: weight}
	a.classes = append(a.classes, t)
	total := 0
	for _, c := range a.classes {
		total += c.Weight
	}
	for _, c := range a.classes {
		s := a.budget * c.Weight / total
		if s < 1 {
			s = 1
		}
		c.share.Store(int64(s))
	}
	return t
}

// admit charges one chunk to the class; false means the class's share is
// exhausted (the caller surfaces ErrAdmission). The add-then-check shape
// is race-free: a loser that oversteps the share backs its charge out.
func (a *Admission) admit(t *TenantClass) bool {
	if t.inUse.Add(1) > t.share.Load() {
		t.inUse.Add(-1)
		t.rejects.Add(1)
		return false
	}
	return true
}

// release refunds one chunk when a grant fails downstream or the chunk
// drains back to the kernel (releaseChunkLocked).
func (a *Admission) release(t *TenantClass) { t.inUse.Add(-1) }

// Share returns the class's current chunk share.
func (t *TenantClass) Share() int { return int(t.share.Load()) }

// InUse returns the chunks the class currently holds.
func (t *TenantClass) InUse() int { return int(t.inUse.Load()) }

// Rejects returns how many grants the class has been refused.
func (t *TenantClass) Rejects() uint64 { return t.rejects.Load() }

// SetAdmission installs (or, with nil, removes) the tenant admission
// controller. Control-plane: set before traffic starts.
func (m *Manager) SetAdmission(a *Admission) { m.admission = a }
