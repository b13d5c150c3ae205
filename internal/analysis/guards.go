package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// guardSearch answers "is this node dominated by a guard on expression
// key?" for the two guard idioms the codebase standardizes on:
//
//	if x != nil { ... use x ... }            // enclosing guard
//	if x == nil { return }; ... use x ...    // early-exit guard
//
// The condition may bury the nil test in a conjunction (x != nil && y)
// or, for the early exit, a disjunction (x == nil || x.M == nil).
// obshook also walks conditions with condMentions for its own predicates.

// condMentions walks the &&/||/! structure of cond and reports whether
// any leaf satisfies pred.
func condMentions(cond ast.Expr, pred func(ast.Expr) bool) bool {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND || e.Op == token.LOR {
			return condMentions(e.X, pred) || condMentions(e.Y, pred)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return condMentions(e.X, pred)
		}
	}
	return pred(cond)
}

// isNilCompare reports whether e is `x <op> nil` or `nil <op> x`,
// returning x.
func isNilCompare(e ast.Expr, op token.Token) (ast.Expr, bool) {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return nil, false
	}
	if isNilIdent(be.Y) {
		return be.X, true
	}
	if isNilIdent(be.X) {
		return be.Y, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always transfers control away:
// its last statement is a return, a branch (break/continue/goto), or a
// call to panic.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// dominatedByGuard reports whether the node at nodePath is protected by a
// guard on key within body: either an enclosing `if` whose condition has
// a conjunct satisfying posPred(key), or a preceding terminating
// `if` whose condition has a disjunct satisfying negPred(key).
func dominatedByGuard(info *types.Info, body *ast.BlockStmt, nodePath stmtPath,
	key string) bool {
	nonNil := func(e ast.Expr) bool {
		x, ok := isNilCompare(e, token.NEQ)
		return ok && exprKey(info, x) == key
	}
	isNil := func(e ast.Expr) bool {
		x, ok := isNilCompare(e, token.EQL)
		return ok && exprKey(info, x) == key
	}

	// Enclosing `if key != nil` with the node in the then-branch.
	for i, s := range nodePath {
		ifs, ok := s.(*ast.IfStmt)
		if !ok || !condMentions(ifs.Cond, nonNil) {
			continue
		}
		if i+1 < len(nodePath) && nodePath[i+1] == ast.Stmt(ifs.Body) {
			return true
		}
	}

	// Preceding `if key == nil { return/...; }`.
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !condMentions(ifs.Cond, isNil) || !terminates(ifs.Body) {
			return true
		}
		if mayPrecede(pathTo(body, ifs.Pos()), nodePath) {
			found = true
			return false
		}
		return true
	})
	return found
}

// assignedFromCall reports whether obj (a local variable) is defined or
// assigned somewhere in body from a direct call satisfying pred — used to
// whitelist receivers that provably come from a non-nil constructor such
// as obs.New.
func assignedFromCall(info *types.Info, body *ast.BlockStmt, obj types.Object,
	pred func(*types.Func) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.ObjectOf(id) != obj {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn := calleeFunc(info, call); fn != nil && pred(fn) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
