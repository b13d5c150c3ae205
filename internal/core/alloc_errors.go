package core

import (
	"errors"

	"fbufs/internal/mem"
)

// Allocation-failure taxonomy. Four distinct exhaustion errors can come
// out of the allocation machinery, and they mean different things to a
// caller deciding how to recover:
//
//   - ErrQuota — the *path's* kernel-imposed chunk quota is exhausted
//     (DataPath.carve: the path would need another chunk but already holds
//     Quota() of them, or the fault plane simulated the kernel refusing
//     one). Other paths can still allocate; recovery is freeing buffers on
//     this path or waiting for notices to drain its free list.
//
//   - ErrAdmission — the path's *tenant class* has exhausted its weighted
//     share of the admission budget (admission.go). The path itself may be
//     under quota; the class as a whole is over-subscribed. Paths in other
//     classes still allocate; recovery is the class draining chunks back
//     (frees, notices, eviction) or the operator re-weighting it.
//
//   - ErrRegionFull — the *global* fbuf VA region has no free chunks
//     (Manager.grantChunk). Every allocator on the host is affected;
//     recovery requires some path or uncached fbuf to fully tear down
//     (removeFromChunk → releaseChunkLocked).
//
//   - mem.ErrOutOfMemory — VA space was available but the *physical frame
//     pool* is empty (vm.System.AllocFrame, reached from populate's
//     allocFrame or a lazy-refill fault). VA-level state is rolled back
//     (carve and AllocUncachedFill recycle the partially populated fbuf);
//     recovery is Manager.ReclaimIdle, which discards free-listed fbuf
//     contents to refill the pool — "when the kernel reclaims the physical
//     memory of an fbuf that is on a free list, it discards the fbuf's
//     contents" (section 3.1).
//
// Where each surfaces:
//
//	DataPath.Alloc          ErrQuota | ErrAdmission | ErrRegionFull |
//	                        mem.ErrOutOfMemory
//	                        (plus ErrPathClosed / ErrDeadDomain, which are
//	                        caller bugs or lifecycle races, not exhaustion)
//	Manager.AllocUncached*  ErrRegionFull | mem.ErrOutOfMemory
//	                        (plus ErrDeadDomain / ErrNotAttached)
//	lazy refill (fault)     mem.ErrOutOfMemory, surfacing as a vm.AccessError
//	                        on the touch that faulted
//
// All four are survivable: the paper's fallback is that "the system
// degrades gracefully to the performance of a system that copies data"
// (section 3.1). xfer.Adaptive implements exactly that — it treats any
// IsAllocFailure error as "take the copy path this hop" and probes its way
// back once reclamation frees resources.

// ErrAdmission is returned when a chunk grant is refused because the
// path's tenant class is at its admission share (see Admission).
var ErrAdmission = errors.New("core: tenant admission share exhausted")

// IsAllocFailure reports whether err is one of the resource-exhaustion
// errors that the degraded copy path recovers from. Lifecycle errors
// (ErrPathClosed, ErrDeadDomain, ErrNotAttached, ...) return false:
// copying cannot fix those, so they must propagate.
func IsAllocFailure(err error) bool {
	return errors.Is(err, ErrQuota) ||
		errors.Is(err, ErrAdmission) ||
		errors.Is(err, ErrRegionFull) ||
		errors.Is(err, mem.ErrOutOfMemory)
}
