package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsHook enforces the observability discipline PR 1 established for hot
// paths: every obs.Observer hot-path call (Emit, Now) must sit behind the
// single nil-check pattern —
//
//	if m.obs != nil { m.obs.Emit(...) }        // enclosing guard
//	if o == nil { return }; o.Emit(...)        // early-exit guard
//
// — so that observation is free when disabled, and observer-guarded
// blocks must charge zero simulated time (no Clock.Charge inside a guard:
// tracing must not perturb the simulation it observes).
//
// Receivers that provably come from the obs.New constructor in the same
// function are whitelisted: obs.New never returns nil.
//
// It also enforces the span bracketing discipline: a SpanBegin in a
// function must be paired with a deferred SpanEnd on the same receiver
// (`defer o.SpanEnd()`), so every return path — including error returns
// added later — closes the span; an inline (non-deferred) SpanEnd is
// flagged for the same reason.
var ObsHook = &Analyzer{
	Name: "obshook",
	Doc:  "require the nil-check pattern around hot-path obs.Observer calls, forbid simulated-time charges inside observer guards, and require SpanBegin to pair with a deferred SpanEnd",
	Run:  runObsHook,
}

// obsHotMethods are the Observer methods that appear on per-operation hot
// paths. Setup-time methods (SetNow, constructors) are exempt; the
// nil-safe trace-lifecycle wrappers (BeginTrace, EndTrace, ResumeTrace,
// SpanRecord, …) are deliberately callable unguarded.
var obsHotMethods = map[string]bool{
	"Emit": true, "Now": true,
	"SpanBegin": true, "SpanEnd": true,
}

func runObsHook(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for body := range functionBodies(file) {
			checkObsBody(pass, body)
			checkSpanPairing(pass, body)
		}
	}
	return nil
}

func checkObsBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch {
		case recvTypeIs(fn, "obs", "Observer") && obsHotMethods[fn.Name()]:
			checkObserverCall(pass, body, call, fn)
		case fn.Name() == "Charge" &&
			(recvTypeIs(fn, "vm", "Sink") || recvTypeIs(fn, "vm", "ClockSink") || recvTypeIs(fn, "vm", "Meter")):
			checkChargeInGuard(pass, body, call)
		}
		return true
	})
}

func checkObserverCall(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr, fn *types.Func) {
	info := pass.TypesInfo
	recv := receiverOf(call)
	key := exprKey(info, recv)
	if key == "" {
		// Receiver is a call result or indexing — not the standard
		// pattern; require restructuring into a guarded local.
		pass.Reportf(call.Pos(),
			"obs.Observer.%s on a non-addressable receiver: bind the observer to a local and guard it with the nil-check pattern", fn.Name())
		return
	}
	// Whitelist: receivers provably from obs.New are never nil.
	if obj := identObj(info, recv); obj != nil {
		fromNew := assignedFromCall(info, body, obj, func(f *types.Func) bool {
			return pkgFuncIs(f, "obs", "New")
		})
		if fromNew {
			return
		}
	}
	if dominatedByGuard(info, body, pathTo(body, call.Pos()), key) {
		return
	}
	pass.Reportf(call.Pos(),
		"unguarded obs.Observer.%s on a hot path: wrap in `if %s != nil { ... }` (or early-return on nil) so disabled observation costs nothing",
		fn.Name(), renderExpr(recv))
}

// checkChargeInGuard flags Clock.Charge calls that occur inside a block
// guarded by an observer nil-check: observation must not charge simulated
// time, or enabling tracing changes the measured system.
func checkChargeInGuard(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr) {
	info := pass.TypesInfo
	nodePath := pathTo(body, call.Pos())
	for i, s := range nodePath {
		ifs, ok := s.(*ast.IfStmt)
		if !ok {
			continue
		}
		inThen := i+1 < len(nodePath) && nodePath[i+1] == ast.Stmt(ifs.Body)
		if !inThen {
			continue
		}
		guardsObserver := condMentions(ifs.Cond, func(e ast.Expr) bool {
			x, ok := isNilCompare(e, token.NEQ)
			if !ok {
				return false
			}
			t := info.TypeOf(x)
			named := namedOf(t)
			return named != nil && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Name() == "obs" && named.Obj().Name() == "Observer"
		})
		if guardsObserver {
			pass.Reportf(call.Pos(),
				"Clock.Charge inside an observer guard: observation must cost zero simulated time, or tracing perturbs the run it measures")
			return
		}
	}
}

// checkSpanPairing enforces the span bracketing discipline within one
// function body: every obs.Observer.SpanBegin must have a deferred
// SpanEnd on the same receiver (so all return paths close the span), and
// SpanEnd may only appear under a defer. Nested function literals are
// separate scopes (inspectShallow skips them; functionBodies yields each
// one on its own).
func checkSpanPairing(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	type beginSite struct {
		call *ast.CallExpr
		key  string
	}
	var begins []beginSite
	var inlineEnds []*ast.CallExpr
	deferredEnds := make(map[string]bool)
	deferredCalls := make(map[*ast.CallExpr]bool)

	spanMethod := func(call *ast.CallExpr) string {
		fn := calleeFunc(info, call)
		if fn == nil || !recvTypeIs(fn, "obs", "Observer") {
			return ""
		}
		return fn.Name()
	}

	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Pre-order: mark the deferred call before ast.Inspect
			// descends into it, so the CallExpr case below skips it.
			if n.Call != nil && spanMethod(n.Call) == "SpanEnd" {
				deferredCalls[n.Call] = true
				deferredEnds[exprKey(info, receiverOf(n.Call))] = true
			}
		case *ast.CallExpr:
			switch spanMethod(n) {
			case "SpanBegin":
				begins = append(begins, beginSite{n, exprKey(info, receiverOf(n))})
			case "SpanEnd":
				if !deferredCalls[n] {
					inlineEnds = append(inlineEnds, n)
				}
			}
		}
		return true
	})

	for _, b := range begins {
		if !deferredEnds[b.key] {
			pass.Reportf(b.call.Pos(),
				"SpanBegin without a deferred SpanEnd on %s in this function: add `defer %s.SpanEnd()` so every return path closes the span",
				renderExpr(receiverOf(b.call)), renderExpr(receiverOf(b.call)))
		}
	}
	for _, c := range inlineEnds {
		pass.Reportf(c.Pos(),
			"SpanEnd outside a defer: use `defer %s.SpanEnd()` so early returns still close the span",
			renderExpr(receiverOf(c)))
	}
}

// renderExpr prints a selector chain for a diagnostic message.
func renderExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	}
	return "obs"
}
