package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FbufLife is the ownership analyzer: a forward may-analysis over the
// CFG (cfg.go) that tracks fbuf-typed values — *core.Fbuf, []*core.Fbuf
// batches, *aggregate.Msg handles — through a typestate automaton
// (typestate.go), using function summaries (summary.go) to see through
// same-package helpers and the facility API. It reports leaks (an fbuf
// that escapes a function with neither Free/Transfer nor a stored
// reference), writes after Transfer or Secure, use after Free, double
// frees, a receiver's read of a volatile fbuf it has not secured,
// element-wise batch ownership, and ownership handoff into goroutines
// with no transfer point — inside one body or through helpers.
var FbufLife = &Analyzer{
	Name: "fbuflife",
	Doc:  "fbuf lifecycle typestate check, through helpers: leaks, use after transfer/free, double free, unsecured volatile reads, batch element ownership, goroutine handoff",
	Run:  runFbufLife,
}

func runFbufLife(pass *Pass) error {
	sums := computeSummaries(pass)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			e := newLifeEngine(pass, sums, true)
			e.analyze(fd.Type, fd.Body)
		}
	}
	return nil
}

// summarizeFunc runs the engine in summary-extraction mode: no
// diagnostics, but every event applied to a parameter-rooted value is
// recorded as a sumEffect and owned returned values become fresh-result
// marks.
func summarizeFunc(pass *Pass, fd *ast.FuncDecl, sums map[*types.Func]*funcSummary) *funcSummary {
	e := newLifeEngine(pass, sums, false)
	e.sum = &funcSummary{}
	e.analyze(fd.Type, fd.Body)
	return e.sum
}

// valInfo is the per-value identity record, shared by all program points
// (flow state lives in lifeFact). Values are keyed by their origin site,
// so re-executing an allocation in a loop reuses one identity with a
// strong state reset.
type valInfo struct {
	id         int
	kind       valKind
	pos        token.Pos // origin: alloc site, param, or binding
	owned      bool      // carries a free/transfer obligation
	parent     int       // for vkElem: the batch value's id (-1 otherwise)
	constIdx   string    // for vkElem under a constant index: its key
	discharged bool      // Free/Transfer/escape seen anywhere (global)
	paramSlot  int       // summary mode: slot this value entered as (-2 none)
	// origin is the originator's exprKey when the value was allocated on
	// a statically volatile path ("" otherwise): its Transfer enters
	// LSUnsecured, and reads by any other domain then need Secure.
	origin string
}

// freeRec tracks Free sites for one (value, domain-key) pair.
type freeRec struct {
	sites      map[token.Pos]bool // single/element-level Free sites
	batchSites map[token.Pos]bool // whole-batch FreeBatch sites
	credits    int                // DupRef grants
}

func (r *freeRec) clone() *freeRec {
	n := &freeRec{credits: r.credits}
	if len(r.sites) > 0 {
		n.sites = make(map[token.Pos]bool, len(r.sites))
		for k := range r.sites {
			n.sites[k] = true
		}
	}
	if len(r.batchSites) > 0 {
		n.batchSites = make(map[token.Pos]bool, len(r.batchSites))
		for k := range r.batchSites {
			n.batchSites[k] = true
		}
	}
	return n
}

// lifeVal is one value's flow state at a program point.
type lifeVal struct {
	mask  LifeState
	freed map[string]*freeRec // domain key -> record ("" = unknown domain)
}

func (v *lifeVal) clone() *lifeVal {
	n := &lifeVal{mask: v.mask}
	if len(v.freed) > 0 {
		n.freed = make(map[string]*freeRec, len(v.freed))
		for k, r := range v.freed {
			n.freed[k] = r.clone()
		}
	}
	return n
}

// lifeFact is the dataflow fact: which values each variable may name,
// and each value's typestate.
type lifeFact struct {
	env map[types.Object][]int
	val map[int]*lifeVal
}

func newFact() *lifeFact {
	return &lifeFact{env: map[types.Object][]int{}, val: map[int]*lifeVal{}}
}

func (f *lifeFact) clone() *lifeFact {
	n := newFact()
	for o, ids := range f.env {
		n.env[o] = append([]int(nil), ids...)
	}
	for id, v := range f.val {
		n.val[id] = v.clone()
	}
	return n
}

// merge unions o into f, reporting whether f changed.
func (f *lifeFact) merge(o *lifeFact) bool {
	changed := false
	for obj, ids := range o.env {
		have := f.env[obj]
		for _, id := range ids {
			if !containsInt(have, id) {
				have = append(have, id)
				changed = true
			}
		}
		f.env[obj] = have
	}
	for id, ov := range o.val {
		fv := f.val[id]
		if fv == nil {
			f.val[id] = ov.clone()
			changed = true
			continue
		}
		if fv.mask|ov.mask != fv.mask {
			fv.mask |= ov.mask
			changed = true
		}
		for dom, rec := range ov.freed {
			fr := fv.freed[dom]
			if fr == nil {
				if fv.freed == nil {
					fv.freed = map[string]*freeRec{}
				}
				fv.freed[dom] = rec.clone()
				changed = true
				continue
			}
			for p := range rec.sites {
				if !fr.sites[p] {
					if fr.sites == nil {
						fr.sites = map[token.Pos]bool{}
					}
					fr.sites[p] = true
					changed = true
				}
			}
			for p := range rec.batchSites {
				if !fr.batchSites[p] {
					if fr.batchSites == nil {
						fr.batchSites = map[token.Pos]bool{}
					}
					fr.batchSites[p] = true
					changed = true
				}
			}
			// Credits merge optimistically (max): a DupRef on either
			// path licenses the extra Free without a false positive.
			if rec.credits > fr.credits {
				fr.credits = rec.credits
				changed = true
			}
		}
	}
	return changed
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// lifeEngine analyzes one function body.
type lifeEngine struct {
	pass   *Pass
	sums   map[*types.Func]*funcSummary
	report bool

	vals     []*valInfo
	siteVals map[token.Pos]int // origin site -> value id
	elemVals map[string]int    // parentID "/" elemKey -> value id
	// constFrees maps an element Free site to the constant index it freed
	// ("" when it freed a non-constant element, or two constants).
	constFrees map[token.Pos]string
	funcEnv    map[types.Object]*types.Func

	sum        *funcSummary // non-nil in summary mode
	record     bool         // true only during the final reporting pass
	reported   map[string]bool
	funcLits   []*ast.FuncLit
	goLits     map[*ast.FuncLit]bool // funclits consumed by a go statement
	paramSlots map[types.Object]int  // every param (fbuf or not) -> slot
	body       *ast.BlockStmt        // the body under analysis (site ordering)

	// Volatility of options and paths, by exprKey, as assignments in this
	// body set them: options variables known volatile, and volatile paths
	// mapped to their originator's key.
	volOpts  map[string]bool
	volPaths map[string]string
}

func newLifeEngine(pass *Pass, sums map[*types.Func]*funcSummary, report bool) *lifeEngine {
	return &lifeEngine{
		pass:       pass,
		sums:       sums,
		report:     report,
		siteVals:   map[token.Pos]int{},
		elemVals:   map[string]int{},
		constFrees: map[token.Pos]string{},
		funcEnv:    map[types.Object]*types.Func{},
		reported:   map[string]bool{},
		goLits:     map[*ast.FuncLit]bool{},
		paramSlots: map[types.Object]int{},
		volOpts:    map[string]bool{},
		volPaths:   map[string]string{},
	}
}

func (e *lifeEngine) info() *types.Info { return e.pass.TypesInfo }

// newVal allocates (or reuses, by origin site) a value identity.
func (e *lifeEngine) newVal(kind valKind, pos token.Pos, owned bool) *valInfo {
	if id, ok := e.siteVals[pos]; ok {
		return e.vals[id]
	}
	v := &valInfo{id: len(e.vals), kind: kind, pos: pos, owned: owned, parent: -1, paramSlot: -2}
	e.vals = append(e.vals, v)
	e.siteVals[pos] = v.id
	return v
}

// elemVal returns the element-view value of batch b under elemKey.
func (e *lifeEngine) elemVal(b *valInfo, elemKey string) *valInfo {
	key := fmt.Sprintf("%d/%s", b.id, elemKey)
	if id, ok := e.elemVals[key]; ok {
		return e.vals[id]
	}
	v := &valInfo{id: len(e.vals), kind: vkElem, pos: b.pos, parent: b.id, paramSlot: -2}
	if strings.HasPrefix(elemKey, "lit:") {
		v.constIdx = elemKey
	}
	e.vals = append(e.vals, v)
	e.elemVals[key] = v.id
	return v
}

// state returns (creating if needed) the flow state of value id in fact.
func state(fact *lifeFact, id int) *lifeVal {
	v := fact.val[id]
	if v == nil {
		v = &lifeVal{mask: LSAllocated | LSWritten}
		fact.val[id] = v
	}
	return v
}

// analyze runs the fixpoint then a single recording pass, then the
// defer/exit/leak stage.
func (e *lifeEngine) analyze(ftype *ast.FuncType, body *ast.BlockStmt) {
	e.body = body
	g := buildCFG(body)
	blocks := g.reachableBlocks()

	entry := newFact()
	e.bindParams(ftype, entry)

	in := make(map[*CFGBlock]*lifeFact, len(blocks))
	in[g.Entry] = entry
	// Fixpoint: silent transfer passes until block inputs stabilize.
	for pass := 0; pass < 64; pass++ {
		changed := false
		for _, blk := range blocks {
			inf := in[blk]
			if inf == nil {
				continue
			}
			out := e.transfer(inf.clone(), blk)
			for _, succ := range blk.Succs {
				if in[succ] == nil {
					in[succ] = out.clone()
					changed = true
				} else if in[succ].merge(out) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Recording pass: re-run each block once on its converged input with
	// diagnostics/summary recording enabled.
	e.record = true
	for _, blk := range blocks {
		if inf := in[blk]; inf != nil {
			e.transfer(inf.clone(), blk)
		}
	}
	e.record = false

	// Defers: a may-approximation — every defer is assumed to run at
	// Exit, in reverse source order, with the exit environment.
	exitFact := in[g.Exit]
	if exitFact == nil {
		exitFact = newFact()
	}
	for i := len(g.Defers) - 1; i >= 0; i-- {
		e.applyDefer(exitFact, g.Defers[i])
	}

	// Leak scan: an owned value no path discharged.
	if e.report {
		for _, v := range e.vals {
			if v.owned && !v.discharged {
				e.reportAt(v.pos, "leak",
					"fbuf allocated here escapes the function with no Free, Transfer, or stored reference (leak; paper §3.2.1)")
			}
		}
	}

	// Nested function literals are separate scopes: analyze each
	// standalone (captured outer fbuf variables are untracked there, so
	// the literal is checked for its own allocations and API misuse).
	lits := e.funcLits
	for _, lit := range lits {
		sub := newLifeEngine(e.pass, e.sums, e.report)
		sub.analyze(lit.Type, lit.Body)
	}
}

// bindParams seeds entry values for fbuf-typed parameters (and the
// receiver in summary mode they are slot-tagged for effect recording).
func (e *lifeEngine) bindParams(ftype *ast.FuncType, fact *lifeFact) {
	slot := 0
	bind := func(names []*ast.Ident, t types.Type) {
		kind := fbufKindOf(t)
		for _, name := range names {
			if obj := e.info().Defs[name]; obj != nil && name.Name != "_" {
				e.paramSlots[obj] = slot
				if kind != vkNone {
					v := e.newVal(kind, name.Pos(), false)
					v.paramSlot = slot
					fact.env[obj] = []int{v.id}
					st := state(fact, v.id)
					st.mask = LSAllocated | LSWritten
				}
			}
			slot++
		}
		if len(names) == 0 {
			slot++
		}
	}
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			bind(field.Names, e.info().TypeOf(field.Type))
		}
	}
}

// transfer applies one block's nodes to fact, returning the out-fact.
func (e *lifeEngine) transfer(fact *lifeFact, blk *CFGBlock) *lifeFact {
	for _, n := range blk.Nodes {
		e.applyNode(fact, n)
	}
	return fact
}

func (e *lifeEngine) applyNode(fact *lifeFact, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		e.applyAssign(fact, n)
	case *ast.ExprStmt:
		e.eval(fact, n.X)
	case *ast.SendStmt:
		e.eval(fact, n.Chan)
		e.escapeRecorded(fact, e.eval(fact, n.Value))
	case *ast.IncDecStmt:
		e.eval(fact, n.X)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				e.bindList(fact, identsToExprs(vs.Names), vs.Values)
			}
		}
	case *ast.ReturnStmt:
		e.applyReturn(fact, n)
	case *ast.GoStmt:
		e.applyGo(fact, n)
	case *ast.DeferStmt:
		// Effects applied at Exit (see applyDefer); just note funclits.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			e.noteFuncLit(lit)
		}
	case *ast.RangeStmt:
		e.applyRange(fact, n)
	case ast.Expr:
		e.eval(fact, n)
	case ast.Stmt:
		// Conservative default: evaluate any contained expressions.
		ast.Inspect(n, func(c ast.Node) bool {
			if ex, ok := c.(ast.Expr); ok {
				e.eval(fact, ex)
				return false
			}
			return true
		})
	}
}

func identsToExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

func (e *lifeEngine) applyAssign(fact *lifeFact, as *ast.AssignStmt) {
	e.bindList(fact, as.Lhs, as.Rhs)
}

// bindList implements assignment/definition: evaluate the RHS, then for
// each ident LHS strongly rebind the variable; non-ident LHS targets are
// stores, which discharge (escape) the assigned values.
func (e *lifeEngine) bindList(fact *lifeFact, lhs, rhs []ast.Expr) {
	var rhsVals [][]int
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value: f, err := p.Alloc()
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			rhsVals = e.evalCallMulti(fact, call)
		} else {
			e.eval(fact, rhs[0])
			rhsVals = make([][]int, len(lhs))
		}
		for len(rhsVals) < len(lhs) {
			rhsVals = append(rhsVals, nil)
		}
	} else {
		rhsVals = make([][]int, len(lhs))
		for i := range rhs {
			if i < len(lhs) {
				rhsVals[i] = e.eval(fact, rhs[i])
			} else {
				e.eval(fact, rhs[i])
			}
		}
	}
	for i, l := range lhs {
		l = ast.Unparen(l)
		if len(rhs) == len(lhs) {
			e.noteVolatility(l, rhs[i])
		} else if i == 0 && len(rhs) == 1 {
			e.noteVolatility(l, rhs[0]) // path, err := mgr.NewPath(...)
		}
		if id, ok := l.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := e.info().ObjectOf(id)
			if obj == nil {
				continue
			}
			// Method-value binding: h := mgr.Free
			if i < len(rhs) {
				if sel, ok := ast.Unparen(rhs[i]).(*ast.SelectorExpr); ok {
					if fn, ok := e.info().Uses[sel.Sel].(*types.Func); ok && builtinSummary(fn) != nil {
						e.funcEnv[obj] = fn
					}
				}
			}
			if fbufKindOf(obj.Type()) != vkNone {
				// A variable declared outside the body under analysis — a
				// package-level var, or a captured outer variable when this
				// engine runs on a function literal — parks the reference
				// beyond this frame: the store discharges the obligation.
				if _, isParam := e.paramSlots[obj]; !isParam && e.body != nil &&
					(obj.Pos() < e.body.Pos() || obj.Pos() > e.body.End()) {
					e.escapeRecorded(fact, rhsVals[i])
					continue
				}
				// Strong rebind: the variable now names the RHS values
				// (possibly none, making it untracked).
				if len(rhsVals[i]) > 0 {
					fact.env[obj] = append([]int(nil), rhsVals[i]...)
				} else {
					delete(fact.env, obj)
				}
			}
			continue
		}
		// Store through a field, index, deref, or map: the value now has
		// a live reference outside the local frame.
		e.escapeRecorded(fact, rhsVals[i])
	}
}

func (e *lifeEngine) applyReturn(fact *lifeFact, ret *ast.ReturnStmt) {
	for i, r := range ret.Results {
		vals := e.eval(fact, r)
		if e.sum != nil && e.record {
			e.recordFresh(i, len(ret.Results), vals)
		}
		// Returning transfers the obligation to the caller.
		e.discharge(vals)
	}
}

// recordFresh marks result slot i fresh when every returned value is an
// owned allocation of this function (the helper is an allocator).
func (e *lifeEngine) recordFresh(i, n int, vals []int) {
	if len(vals) == 0 {
		return
	}
	kind := fkOwned
	for _, id := range vals {
		v := e.vals[id]
		if v.paramSlot != -2 || v.kind == vkElem {
			return // returns a param or view: aliasing, not fresh
		}
		if !v.owned {
			kind = fkAlias
		}
	}
	for len(e.sum.fresh) < n {
		e.sum.fresh = append(e.sum.fresh, fkNone)
	}
	if e.sum.fresh[i] == fkNone {
		e.sum.fresh[i] = kind
	}
}

// applyGo handles `go f(args)` / `go func(){...}()`: any still-owned
// live fbuf crossing into the goroutine without a Transfer is an
// undocumented ownership handoff.
func (e *lifeEngine) applyGo(fact *lifeFact, g *ast.GoStmt) {
	var crossing []int
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		e.noteFuncLit(lit)
		e.goLits[lit] = true
		// Captured fbuf variables cross the goroutine boundary.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := e.info().Uses[id]; obj != nil {
					if ids, ok := fact.env[obj]; ok {
						crossing = append(crossing, ids...)
					}
				}
			}
			return true
		})
	}
	for _, arg := range g.Call.Args {
		crossing = append(crossing, e.eval(fact, arg)...)
	}
	for _, id := range crossing {
		st := state(fact, id)
		if _, viol := lifeNext(st.mask, EvHandoff); viol != nil && e.record {
			e.reportAt(g.Pos(), viol.Name, fmt.Sprintf(
				"fbuf handed to goroutine while this domain still owns it: no Transfer before the handoff (rule %s, paper §%s)",
				viol.Rule, viol.Paper))
		}
		if e.sum != nil && e.record {
			e.recordEffect(sumEffect{slot: e.slotOf(id), escape: true, domSlot: -1})
		}
	}
	e.discharge(crossing)
}

// applyRange binds the per-iteration element view for `range` over a
// tracked batch, with a strong per-iteration state reset (each iteration
// names a different element, so state must not leak across iterations).
func (e *lifeEngine) applyRange(fact *lifeFact, r *ast.RangeStmt) {
	base := e.eval(fact, r.X)
	var batches []int
	for _, id := range base {
		if e.vals[id].kind == vkBatch {
			batches = append(batches, id)
		}
	}
	bindElem := func(ex ast.Expr, keyPrefix string) {
		if ex == nil || len(batches) == 0 {
			return
		}
		id, ok := ast.Unparen(ex).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := e.info().ObjectOf(id)
		if obj == nil {
			return
		}
		var ids []int
		for _, b := range batches {
			ev := e.elemVal(e.vals[b], keyPrefix+posString(r.Pos()))
			// Fresh iteration: element state restarts from the batch's.
			bst := state(fact, b)
			fact.val[ev.id] = &lifeVal{mask: bst.mask}
			ids = append(ids, ev.id)
		}
		if fbufKindOf(obj.Type()) == vkSingle {
			fact.env[obj] = ids
		}
	}
	bindElem(r.Value, "range:")
	// Index-variable element views (bufs[i] in the body) also restart.
	if r.Key != nil && len(batches) > 0 {
		if id, ok := ast.Unparen(r.Key).(*ast.Ident); ok && id.Name != "_" {
			if obj := e.info().ObjectOf(id); obj != nil {
				for _, b := range batches {
					ev := e.elemVal(e.vals[b], "idx:"+objKey(obj))
					bst := state(fact, b)
					fact.val[ev.id] = &lifeVal{mask: bst.mask}
				}
			}
		}
	}
}

func (e *lifeEngine) noteFuncLit(lit *ast.FuncLit) {
	for _, l := range e.funcLits {
		if l == lit {
			return
		}
	}
	e.funcLits = append(e.funcLits, lit)
}

// eval evaluates an expression for its tracked values, applying call
// effects along the way.
func (e *lifeEngine) eval(fact *lifeFact, expr ast.Expr) []int {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := e.info().ObjectOf(x); obj != nil {
			return fact.env[obj]
		}
		return nil
	case *ast.CallExpr:
		res := e.evalCallMulti(fact, x)
		if len(res) > 0 {
			return res[0]
		}
		return nil
	case *ast.IndexExpr:
		base := e.eval(fact, x.X)
		e.eval(fact, x.Index)
		key := indexKey(e.info(), x.Index)
		var out []int
		for _, id := range base {
			if e.vals[id].kind == vkBatch {
				out = append(out, e.elemVal(e.vals[id], key).id)
			}
		}
		return out
	case *ast.SliceExpr:
		// bufs[:n] aliases the same batch.
		if x.Low != nil {
			e.eval(fact, x.Low)
		}
		if x.High != nil {
			e.eval(fact, x.High)
		}
		return e.eval(fact, x.X)
	case *ast.SelectorExpr:
		e.eval(fact, x.X)
		return nil // field access: untracked storage
	case *ast.UnaryExpr:
		e.eval(fact, x.X)
		return nil
	case *ast.StarExpr:
		e.eval(fact, x.X)
		return nil
	case *ast.BinaryExpr:
		e.eval(fact, x.X)
		e.eval(fact, x.Y)
		return nil
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			e.escapeRecorded(fact, e.eval(fact, el))
		}
		return nil
	case *ast.FuncLit:
		e.noteFuncLit(x)
		if !e.goLits[x] {
			// A literal that outlives this statement may hold captured
			// fbufs indefinitely: discharge them.
			var captured []int
			ast.Inspect(x.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := e.info().Uses[id]; obj != nil {
						if ids, ok := fact.env[obj]; ok {
							captured = append(captured, ids...)
						}
					}
				}
				return true
			})
			e.escapeRecorded(fact, captured)
		}
		return nil
	case *ast.TypeAssertExpr:
		e.eval(fact, x.X)
		return nil
	}
	return nil
}

// indexKey canonicalizes an index expression for element-view identity:
// constant indices and loop variables get stable keys; anything else is
// keyed by site (distinct sites stay distinct, never merged).
func indexKey(info *types.Info, idx ast.Expr) string {
	idx = ast.Unparen(idx)
	if tv, ok := info.Types[idx]; ok && tv.Value != nil {
		return "lit:" + tv.Value.ExactString()
	}
	if id, ok := idx.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return "idx:" + objKey(obj)
		}
	}
	return "site:" + posString(idx.Pos())
}

// evalCallMulti evaluates a call, applies its summary effects, and
// returns per-result tracked-value sets.
func (e *lifeEngine) evalCallMulti(fact *lifeFact, call *ast.CallExpr) [][]int {
	// Builtins like append/len/cap: evaluate args; append escapes fbuf
	// elements into the destination slice (untracked aggregation).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := e.info().Uses[id].(*types.Builtin); isBuiltin {
			for _, a := range call.Args {
				e.escapeRecorded(fact, e.eval(fact, a))
			}
			return nil
		}
	}

	fn := calleeFunc(e.info(), call)
	if fn == nil {
		// Indirect call through a function value: method values bound to
		// facility API carry their builtin summary.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := e.info().ObjectOf(id); obj != nil {
				fn = e.funcEnv[obj]
			}
		}
	}
	// Conversions (core.Fbuf(x) style) have no *types.Func; treat like
	// unknown calls below.

	var recvVals []int
	if recv := receiverOf(call); recv != nil && fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		recvVals = e.eval(fact, recv)
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		e.eval(fact, sel.X)
	}
	argVals := make([][]int, len(call.Args))
	for i, a := range call.Args {
		argVals[i] = e.eval(fact, a)
	}

	slotVals := func(slot int) []int {
		if slot == -1 {
			return recvVals
		}
		if slot >= 0 && slot < len(argVals) {
			return argVals[slot]
		}
		return nil
	}

	var sum *funcSummary
	if fn != nil {
		sum = builtinSummary(fn)
		if sum == nil {
			sum = e.sums[fn]
		}
	}
	if sum == nil {
		// Unknown callee. Methods on Fbuf/Msg we have no summary for are
		// accessors (reads); everything else may retain its fbuf
		// arguments, so they escape.
		if fn != nil && (recvTypeIs(fn, "core", "Fbuf") || recvTypeIs(fn, "aggregate", "Msg")) {
			e.applyEvent(fact, recvVals, EvRead, "", nil, call.Pos(), levSingle)
		} else {
			for _, vs := range argVals {
				e.escapeRecorded(fact, vs)
			}
			e.escapeRecorded(fact, recvVals)
		}
		return e.callResults(fact, call, fn, nil)
	}

	for _, eff := range sum.effects {
		vals := slotVals(eff.slot)
		if len(vals) == 0 && !eff.rebind {
			continue
		}
		var domExpr ast.Expr
		if eff.domSlot >= 0 && eff.domSlot < len(call.Args) {
			domExpr = call.Args[eff.domSlot]
		}
		domKey := ""
		if domExpr != nil {
			domKey = exprKey(e.info(), domExpr)
		}
		switch {
		case eff.rebind:
			e.applyRebind(fact, call, eff.slot)
		case eff.dup:
			for _, id := range vals {
				st := state(fact, id)
				if st.freed == nil {
					st.freed = map[string]*freeRec{}
				}
				rec := st.freed[domKey]
				if rec == nil {
					rec = &freeRec{}
					st.freed[domKey] = rec
				}
				rec.credits++
			}
			e.recordParamEffects(vals, sumEffect{ev: EvFree, dup: true, domSlot: -1}, domExpr)
		case eff.escape:
			e.escapeRecorded(fact, vals)
		default:
			e.applyEvent(fact, vals, eff.ev, domKey, domExpr, call.Pos(), eff.level)
		}
	}
	return e.callResults(fact, call, fn, sum)
}

// applyRebind implements AllocBatch(out): when the out-argument is a
// plain variable, it now names a freshly filled batch the caller owns.
func (e *lifeEngine) applyRebind(fact *lifeFact, call *ast.CallExpr, slot int) {
	if slot < 0 || slot >= len(call.Args) {
		return
	}
	id, ok := ast.Unparen(call.Args[slot]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := e.info().ObjectOf(id)
	if obj == nil {
		return
	}
	v := e.newVal(vkBatch, call.Pos(), true)
	fact.env[obj] = []int{v.id}
	fact.val[v.id] = &lifeVal{mask: LSAllocated}
	// Element views of a re-filled batch restart too.
	for _, eid := range e.elemVals {
		if e.vals[eid].parent == v.id {
			fact.val[eid] = &lifeVal{mask: LSAllocated}
		}
	}
}

// callResults builds per-result value sets: fresh allocations for
// summary-marked results, foreign (obligation-free) values for other
// fbuf-typed results so later misuse is still checked.
func (e *lifeEngine) callResults(fact *lifeFact, call *ast.CallExpr, fn *types.Func, sum *funcSummary) [][]int {
	tv, ok := e.info().Types[call]
	if !ok {
		return nil
	}
	var resTypes []types.Type
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			resTypes = append(resTypes, tuple.At(i).Type())
		}
	} else {
		resTypes = []types.Type{tv.Type}
	}
	out := make([][]int, len(resTypes))
	for i, rt := range resTypes {
		kind := fbufKindOf(rt)
		if kind == vkNone {
			continue
		}
		fk := fkAlias
		if sum != nil && i < len(sum.fresh) {
			fk = sum.fresh[i]
			if fk == fkNone {
				continue // summary says this result aliases a param: skip
			}
		}
		// Key the value by call site + result index so loops reuse one
		// identity with a strong reset.
		sitePos := call.Pos() + token.Pos(i)
		v := e.newVal(kind, sitePos, fk == fkOwned)
		v.pos = call.Pos()
		if i == 0 && fn != nil {
			v.origin = e.volatileOrigin(call, fn)
		}
		fact.val[v.id] = &lifeVal{mask: LSAllocated}
		out[i] = []int{v.id}
	}
	return out
}

// applyEvent runs one lifecycle event over a value set, reporting
// violations and recording summary effects.
func (e *lifeEngine) applyEvent(fact *lifeFact, vals []int, ev LifeEvent,
	domKey string, domExpr ast.Expr, site token.Pos, level effLevel) {
	if len(vals) == 0 {
		return
	}
	// Batch-level events on a batch target expand nothing; element-level
	// helper effects on a batch expand to a per-call-site element view.
	if level == levElem {
		var expanded []int
		for _, id := range vals {
			v := e.vals[id]
			if v.kind == vkBatch {
				expanded = append(expanded, e.elemVal(v, "helper:"+posString(site)).id)
			} else {
				expanded = append(expanded, id)
			}
		}
		vals = expanded
		level = levSingle
	}

	type verdict struct {
		viol *LifeViolation
		prev token.Pos
	}
	verdicts := make([]verdict, 0, len(vals))
	for _, id := range vals {
		v := e.vals[id]
		st := state(fact, id)
		next, viol := lifeNext(st.mask, ev)
		if ev == EvTransfer && v.origin != "" && st.mask&(LSAllocated|LSWritten) != 0 {
			// The originator keeps write permission on a volatile path, so
			// the receiver holds the value unsecured (paper §3.2.4).
			next |= LSUnsecured
		}
		if ev == EvRead && (domKey == "" || domKey == v.origin) {
			viol = nil // the originator trusts its own writes; unknown readers pass
		}
		if ev == EvFree && st.mask&LSTransferred != 0 {
			// After a Transfer this domain's Free drops only its own
			// reference — the receiver still holds the buffer live (copy
			// semantics, paper §2.1.2) — so the value never becomes
			// globally Freed and later Transfers down the chain stay legal.
			next = st.mask
		}
		vd := verdict{}
		if ev == EvFree {
			// Double-free detection is site-based, not mask-based, so a
			// loop re-executing one Free never convicts itself.
			vd.viol, vd.prev = e.applyFree(fact, st, v, domKey, site, level)
		} else if viol != nil {
			vd.viol = viol
		}
		st.mask = next
		verdicts = append(verdicts, vd)

		if ev == EvFree || ev == EvTransfer {
			e.discharge([]int{id})
		}
	}

	// Report only when every value the variable may name agrees on the
	// violation: path-insensitive env joins (f may be a or b) must not
	// convict a use that is clean for one of the candidates.
	if e.record && e.report {
		counts := map[string]int{}
		var firstViol *LifeViolation
		var prevSite token.Pos
		for _, vd := range verdicts {
			if vd.viol != nil {
				counts[vd.viol.Name]++
				if firstViol == nil {
					firstViol = vd.viol
					prevSite = vd.prev
				}
			}
		}
		if firstViol != nil && counts[firstViol.Name] == len(verdicts) {
			e.reportViolation(site, firstViol, ev, prevSite)
		}
	}
	e.recordParamEffects(vals, sumEffect{ev: ev, level: level, domSlot: -1}, domExpr)
}

// applyFree applies Free bookkeeping to one value, returning a
// double-free verdict (nil when clean) and the prior site.
func (e *lifeEngine) applyFree(fact *lifeFact, st *lifeVal, v *valInfo,
	domKey string, site token.Pos, level effLevel) (*LifeViolation, token.Pos) {
	if st.freed == nil {
		st.freed = map[string]*freeRec{}
	}
	rec := st.freed[domKey]
	if rec == nil {
		rec = &freeRec{}
		st.freed[domKey] = rec
	}

	var viol *LifeViolation
	var prev token.Pos
	check := func(r *freeRec, distinct func(token.Pos) bool) {
		if viol != nil || r == nil || domKey == "" {
			return
		}
		for p := range r.sites {
			if p != site && !distinct(p) && e.sitePrecedes(p, site) {
				viol, prev = doubleFreeViolation(), p
				return
			}
		}
		for p := range r.batchSites {
			if p != site && e.sitePrecedes(p, site) {
				viol, prev = doubleFreeViolation(), p
				return
			}
		}
	}
	check(rec, func(token.Pos) bool { return false })

	// Element/batch interplay: freeing an element consults the parent
	// batch's whole-batch frees; freeing the batch consults element-level
	// frees recorded on it. A constant-index element is a different buffer
	// from every other constant index, so their frees on the parent are
	// not earlier frees of it.
	var parentSt *lifeVal
	var parentRec *freeRec
	if v.kind == vkElem && v.parent >= 0 {
		parentSt = state(fact, v.parent)
		if parentSt.freed == nil {
			parentSt.freed = map[string]*freeRec{}
		}
		parentRec = parentSt.freed[domKey]
		if parentRec == nil {
			parentRec = &freeRec{}
			parentSt.freed[domKey] = parentRec
		}
		check(parentRec, func(p token.Pos) bool {
			k := e.constFrees[p]
			return v.constIdx != "" && k != "" && k != v.constIdx
		})
	}

	if viol != nil && rec.credits > 0 {
		rec.credits--
		viol, prev = nil, token.NoPos
	}

	// Record the site.
	target := rec
	if level == levBatch {
		if target.batchSites == nil {
			target.batchSites = map[token.Pos]bool{}
		}
		target.batchSites[site] = true
	} else {
		if target.sites == nil {
			target.sites = map[token.Pos]bool{}
		}
		target.sites[site] = true
	}
	if parentRec != nil {
		// Element frees surface on the parent so a later FreeBatch (or a
		// second element pass) sees them.
		if parentRec.sites == nil {
			parentRec.sites = map[token.Pos]bool{}
		}
		parentRec.sites[site] = true
		if k, seen := e.constFrees[site]; !seen {
			e.constFrees[site] = v.constIdx
		} else if k != v.constIdx {
			e.constFrees[site] = ""
		}
		e.discharge([]int{v.parent})
		parentSt.mask |= LSFreed
	}
	return viol, prev
}

// sitePrecedes reports whether free site a may come before site b in
// program order (util.go's syntactic may-precede). Sites in sibling arms
// of one if/switch never precede each other, so one conceptual free
// compiled into two exclusive arms — and rejoined by the dataflow merge
// around a loop back edge — is not convicted as a double free.
func (e *lifeEngine) sitePrecedes(a, b token.Pos) bool {
	if e.body == nil {
		return true
	}
	return mayPrecede(pathTo(e.body, a), pathTo(e.body, b))
}

func doubleFreeViolation() *LifeViolation {
	for i := range LifecycleViolations {
		if LifecycleViolations[i].Name == "double-free" {
			return &LifecycleViolations[i]
		}
	}
	return nil
}

func (e *lifeEngine) reportViolation(site token.Pos, viol *LifeViolation, ev LifeEvent, prev token.Pos) {
	var msg string
	switch viol.Name {
	case "double-free":
		where := ""
		if prev.IsValid() {
			p := e.pass.Fset.Position(prev)
			where = fmt.Sprintf("; already freed at %s:%d", p.Filename, p.Line)
		}
		msg = fmt.Sprintf("fbuf freed twice in the same domain (rule %s, paper §%s)%s", viol.Rule, viol.Paper, where)
	case "use-after-transfer":
		msg = fmt.Sprintf("write to fbuf after Transfer: transferred fbufs are immutable (rule %s, paper §%s)", viol.Rule, viol.Paper)
	case "write-after-secure":
		msg = fmt.Sprintf("write to fbuf after Secure: protection was raised (rule %s, paper §%s)", viol.Rule, viol.Paper)
	case "use-after-free":
		msg = fmt.Sprintf("use of fbuf after Free (%s; rule %s, paper §%s)", ev, viol.Rule, viol.Paper)
	case "unsecured-volatile-read":
		msg = fmt.Sprintf("read of volatile fbuf by receiver without Secure: the originator still holds write permission; call Secure or branch on Secured() first (rule %s, paper §%s)", viol.Rule, viol.Paper)
	default:
		msg = fmt.Sprintf("fbuf lifecycle violation: %s on %s state (rule %s, paper §%s)", ev, viol.Name, viol.Rule, viol.Paper)
	}
	e.reportAt(site, viol.Name, msg)
}

func (e *lifeEngine) reportAt(pos token.Pos, name, msg string) {
	if !e.report {
		return
	}
	key := posString(pos) + "|" + name
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	e.pass.Reportf(pos, "%s", msg)
}

// discharge marks values (and element views' parents) as having met
// their obligation somewhere in the function.
func (e *lifeEngine) discharge(vals []int) {
	for _, id := range vals {
		v := e.vals[id]
		v.discharged = true
		if v.kind == vkElem && v.parent >= 0 {
			e.vals[v.parent].discharged = true
		}
	}
}

// escape discharges values whose reference outlives the local frame.
func (e *lifeEngine) escape(fact *lifeFact, vals []int) {
	e.discharge(vals)
}

// escapeRecorded is escape plus summary-effect recording (param escapes
// matter to callers; plain local escapes do not).
func (e *lifeEngine) escapeRecorded(fact *lifeFact, vals []int) {
	e.escape(fact, vals)
	e.recordParamEffects(vals, sumEffect{escape: true, domSlot: -1}, nil)
}

// recordParamEffects records eff for every parameter-rooted value in
// vals (summary mode, recording pass only).
func (e *lifeEngine) recordParamEffects(vals []int, eff sumEffect, domExpr ast.Expr) {
	if e.sum == nil || !e.record {
		return
	}
	domSlot := -1
	if domExpr != nil {
		if obj := identObj(e.info(), domExpr); obj != nil {
			domSlot = e.paramSlotOfObj(obj)
		}
	}
	for _, id := range vals {
		slot := e.slotOf(id)
		if slot == -2 {
			continue
		}
		rec := eff
		rec.slot = slot
		rec.domSlot = domSlot
		v := e.vals[id]
		if v.kind == vkElem && v.parent >= 0 && e.vals[v.parent].paramSlot != -2 {
			rec.slot = e.vals[v.parent].paramSlot
			if rec.level == levSingle {
				rec.level = levElem
			}
		}
		e.recordEffect(rec)
	}
}

func (e *lifeEngine) recordEffect(eff sumEffect) {
	if eff.slot == -2 {
		return
	}
	for _, have := range e.sum.effects {
		if have == eff {
			return
		}
	}
	e.sum.effects = append(e.sum.effects, eff)
}

// slotOf maps a value to the parameter slot it entered through (-2 when
// it is not parameter-rooted).
func (e *lifeEngine) slotOf(id int) int {
	v := e.vals[id]
	if v.paramSlot != -2 {
		return v.paramSlot
	}
	if v.kind == vkElem && v.parent >= 0 {
		return e.vals[v.parent].paramSlot
	}
	return -2
}

// paramSlotOfObj resolves an object to its parameter slot (-1 when it is
// not a parameter of the function under analysis).
func (e *lifeEngine) paramSlotOfObj(obj types.Object) int {
	if slot, ok := e.paramSlots[obj]; ok {
		return slot
	}
	return -1
}

// applyDefer applies a deferred call's effects with the exit-time
// environment: direct facility/helper calls run with full checking;
// deferred literals are scanned for discharging calls on captured
// variables so `defer func(){ mgr.Free(f, d) }()` meets f's obligation.
func (e *lifeEngine) applyDefer(fact *lifeFact, d *ast.DeferStmt) {
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(e.info(), call)
			if fn == nil {
				return true
			}
			sum := builtinSummary(fn)
			if sum == nil {
				sum = e.sums[fn]
			}
			if sum == nil {
				return true
			}
			for _, eff := range sum.effects {
				if eff.ev != EvFree && eff.ev != EvTransfer && !eff.escape {
					continue
				}
				var target ast.Expr
				if eff.slot == -1 {
					target = receiverOf(call)
				} else if eff.slot >= 0 && eff.slot < len(call.Args) {
					target = call.Args[eff.slot]
				}
				if target == nil {
					continue
				}
				if obj := identObj(e.info(), target); obj != nil {
					e.discharge(fact.env[obj])
				}
			}
			return true
		})
		return
	}
	// Direct deferred call: apply with checking (the recording flag is
	// on so double-free against earlier eager frees still reports).
	e.record = true
	e.evalCallMulti(fact, d.Call)
	e.record = false
}

// noteVolatility records what assigning rhs to lhs tells the read rule:
// lhs now names volatile options, a volatile path, or neither.
func (e *lifeEngine) noteVolatility(lhs, rhs ast.Expr) {
	key := exprKey(e.info(), lhs)
	if key == "" {
		return
	}
	delete(e.volOpts, key)
	delete(e.volPaths, key)
	if e.optsVolatile(rhs) {
		e.volOpts[key] = true
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(e.info(), call)
	if fn != nil && fn.Name() == "NewPath" && len(call.Args) >= 4 && !call.Ellipsis.IsValid() &&
		(recvTypeIs(fn, "core", "Manager") || recvTypeIs(fn, "fbufs", "System")) &&
		e.optsVolatile(call.Args[1]) {
		if orig := exprKey(e.info(), call.Args[3]); orig != "" {
			e.volPaths[key] = orig // the path's first domain originates
		}
	}
}

// optsVolatile reports whether an options expression is statically
// volatile: a CachedVolatile or Uncached call (core's functions or the
// fbufs facade's variables), an Options literal with Volatile: true, or a
// variable this body set to one of those.
func (e *lifeEngine) optsVolatile(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.CallExpr:
		var name *ast.Ident
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			name = fun
		case *ast.SelectorExpr:
			name = fun.Sel
		}
		if name == nil || (name.Name != "CachedVolatile" && name.Name != "Uncached") {
			return false
		}
		obj := e.info().Uses[name]
		return obj != nil && obj.Pkg() != nil && (obj.Pkg().Name() == "core" || obj.Pkg().Name() == "fbufs")
	case *ast.CompositeLit:
		if !isNamedPtr(e.info().TypeOf(x), "core", "Options") {
			return false
		}
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				return false // positional: don't guess
			}
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Volatile" {
				v, ok := ast.Unparen(kv.Value).(*ast.Ident)
				return ok && v.Name == "true"
			}
		}
		return false // Volatile omitted: the zero value is non-volatile
	case *ast.Ident, *ast.SelectorExpr:
		return e.volOpts[exprKey(e.info(), x)]
	}
	return false
}

// volatileOrigin returns the originator's key when call allocates an fbuf
// on a statically volatile path, "" otherwise.
func (e *lifeEngine) volatileOrigin(call *ast.CallExpr, fn *types.Func) string {
	switch {
	case fn.Name() == "Alloc" && recvTypeIs(fn, "core", "DataPath"):
		return e.volPaths[exprKey(e.info(), receiverOf(call))]
	case (fn.Name() == "AllocUncached" || fn.Name() == "AllocUncachedFill") &&
		recvTypeIs(fn, "core", "Manager") && len(call.Args) >= 3 && e.optsVolatile(call.Args[2]):
		return exprKey(e.info(), call.Args[0])
	}
	return ""
}
