package analysis

import (
	"go/ast"
	"go/types"
)

// LockOrder machine-checks the documented lock ranking of the concurrent
// fbuf facility (DESIGN.md §10). Every mutex that matters has a rank:
//
//	DataPath.mu → Manager.regionMu → chunk.mu → Fbuf.mu → Sanitizer.mu
//	→ AddrSpace.mu, System.mu → Depot.mu → leaf locks (PhysMem.mu,
//	Plane.mu, Manager.noticeMu, Manager.cacheMu, Tracer.mu, Registry.mu,
//	depotShard.mu, epochState.mu)
//
// Depot.mu ranks just below the leaves because a depot assembling or
// spilling a unit takes shard locks while holding it; the shards and the
// epoch state are true leaves.
//
// and a function that acquires a lock while directly holding one of
// strictly higher rank is reported — that inversion is the shape of every
// ABBA deadlock. The analysis is function-local and syntactic over the
// textual statement order, like the rest of the suite:
//
//   - Direct sync.Mutex/RWMutex Lock/RLock calls on a ranked owner-type
//     field are acquisitions; Unlock/RUnlock releases the matching hold.
//     The DataPath lock/unlock wrapper methods count as DataPath.mu.
//   - Deferred unlocks are ignored: the lock is treated as held to the end
//     of the function, which is exactly the ordering obligation a
//     defer creates.
//   - TryLock is exempt — a failed try returns instead of blocking, so it
//     cannot participate in a deadlock cycle.
//   - Re-locking the same mutex expression while it is held is reported as
//     a self-deadlock.
//   - Locks acquired inside callees are invisible (the callee is analyzed
//     on its own), and mutexes outside the rank table are ignored — the
//     checker is deliberately under-approximate; what it does flag is a
//     real ordering bug.
//
// _test.go files are skipped.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the documented fbuf lock ranking: no lock may be acquired while directly holding a higher-ranked one",
	Run:  runLockOrder,
}

// lockOrderDoc is the ranking recited in diagnostics.
const lockOrderDoc = "DataPath.mu → Manager.regionMu → chunk.mu → Fbuf.mu → Sanitizer.mu → AddrSpace.mu, System.mu → Depot.mu → leaf locks"

// lockRank maps OwnerType.field to its position in the documented order.
// Matching is by type and field name (unique across the module), so the
// analyzer works identically on the real packages and the test corpus.
var lockRank = map[string]int{
	"DataPath.mu":      10,
	"Manager.regionMu": 20,
	"chunk.mu":         30,
	"Fbuf.mu":          40,
	"Sanitizer.mu":     50,
	"AddrSpace.mu":     60,
	// System.mu is the VM lock over the TLB and every page table; only
	// PhysMem.mu is taken under it. It never nests with AddrSpace.mu.
	"System.mu": 60,
	// Depot.mu (PR 10) sits below the leaves: unit assembly and spill take
	// shard locks while holding it.
	"Depot.mu": 65,
	// Leaf locks: rank-equal, never nested within each other.
	"PhysMem.mu":       70,
	"Plane.mu":         70,
	"Manager.noticeMu": 70,
	"Manager.cacheMu":  70,
	"Tracer.mu":        70,
	"Registry.mu":      70,
	// rings.Pair.mu guards only the ring indexes and slot arrays; entries
	// are popped under it and processed outside it, so nothing is ever
	// acquired while it is held.
	"Pair.mu": 70,
	// PR 10 leaves: a depot shard's loose-inventory list and the epoch
	// machinery's parked-frame list. AdvanceEpoch retires frames outside
	// epochState.mu precisely so it stays a leaf.
	"depotShard.mu": 70,
	"epochState.mu": 70,
}

// heldLock is one live acquisition during the body walk.
type heldLock struct {
	key  string // OwnerType.field rank key
	inst string // exprKey instance identity ("" when unmatchable)
	rank int
}

func runLockOrder(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for body := range functionBodies(file) {
			checkLockOrderBody(pass, body)
		}
	}
	return nil
}

func checkLockOrderBody(pass *Pass, body *ast.BlockStmt) {
	var held []heldLock
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held (for ordering
			// purposes) until the function returns: skip it entirely.
			return false
		case *ast.FuncLit:
			// A nested closure runs at some other time; analyze it as
			// its own body (functionBodies yields it separately).
			return false
		case *ast.CallExpr:
			op, key, inst := lockOp(pass, s)
			switch op {
			case "acquire":
				rank := lockRank[key]
				for i := len(held) - 1; i >= 0; i-- {
					h := held[i]
					if h.inst != "" && h.inst == inst {
						pass.Reportf(s.Pos(),
							"lock order violation: %s already holds this mutex (self-deadlock)", key)
						break
					}
					if h.rank > rank {
						pass.Reportf(s.Pos(),
							"lock order violation: acquiring %s while holding %s; the documented order is %s",
							key, h.key, lockOrderDoc)
						break
					}
				}
				held = append(held, heldLock{key: key, inst: inst, rank: rank})
			case "release":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == key && (inst == "" || held[i].inst == inst) {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
		}
		return true
	})
}

// lockOp classifies a call as a ranked-mutex acquisition or release,
// returning the rank key and an instance identity. Anything else — an
// unranked mutex, a TryLock, an indirect call — returns op "".
func lockOp(pass *Pass, call *ast.CallExpr) (op, key, inst string) {
	info := pass.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", "", ""
	}
	if recvTypeIs(fn, "sync", "Mutex") || recvTypeIs(fn, "sync", "RWMutex") {
		recv := receiverOf(call)
		sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
		if !ok {
			return "", "", "" // local or package-level mutex: unranked
		}
		named := namedOf(info.TypeOf(sel.X))
		if named == nil {
			return "", "", ""
		}
		key = named.Obj().Name() + "." + sel.Sel.Name
		if _, ranked := lockRank[key]; !ranked {
			return "", "", ""
		}
		inst = exprKey(info, recv)
		switch fn.Name() {
		case "Lock", "RLock":
			return "acquire", key, inst
		case "Unlock", "RUnlock":
			return "release", key, inst
		}
		return "", "", "" // TryLock/TryRLock: cannot block
	}
	// The DataPath lock/unlock wrappers are the facility's contended-
	// acquisition counters around DataPath.mu.
	if named := recvNamedType(fn); named != nil && named.Obj().Name() == "DataPath" {
		recv := receiverOf(call)
		inst = exprKey(info, recv)
		if inst != "" {
			inst += ".mu"
		}
		switch fn.Name() {
		case "lock":
			return "acquire", "DataPath.mu", inst
		case "unlock":
			return "release", "DataPath.mu", inst
		}
	}
	return "", "", ""
}

// recvNamedType returns the named type of fn's receiver, or nil.
func recvNamedType(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}
