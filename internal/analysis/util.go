package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isTestFile reports whether the file containing pos is a _test.go file.
// The protocol analyzers skip tests: tests deliberately violate the fbuf
// discipline to probe the simulated MMU, and determinism rules apply only
// to simulator code proper.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// functionBodies yields every function body in the file — declarations and
// literals — each analyzed as its own scope.
func functionBodies(file *ast.File) map[*ast.BlockStmt]bool {
	out := map[*ast.BlockStmt]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out[fn.Body] = true
			}
		case *ast.FuncLit:
			if fn.Body != nil {
				out[fn.Body] = true
			}
		}
		return true
	})
	return out
}

// inspectShallow walks body without descending into nested function
// literals (they are separate scopes).
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		return fn(n)
	})
}

// calleeFunc resolves the called function or method of call, or nil for
// indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// recvTypeIs reports whether fn is a method whose receiver's named type
// lives in a package *named* pkgName and is called typeName. Matching by
// package name (not full import path) lets the analyzers work identically
// against the real fbufs/internal packages and the testdata stubs.
func recvTypeIs(fn *types.Func, pkgName, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Name() == pkgName && named.Obj().Name() == typeName
}

// pkgFuncIs reports whether fn is the package-level function pkgName.name.
func pkgFuncIs(fn *types.Func, pkgName, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == pkgName && fn.Name() == name
}

// returnsError reports whether fn's final result is the error type, and
// that result's index.
func returnsError(fn *types.Func) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return 0, false
	}
	last := sig.Results().Len() - 1
	if types.Identical(sig.Results().At(last).Type(), types.Universe.Lookup("error").Type()) {
		return last, true
	}
	return 0, false
}

// receiverOf returns the receiver expression of a method call
// (x in x.M(...)), or nil.
func receiverOf(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// identObj resolves e to the object of a plain identifier, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// exprKey canonicalizes a pure selector/index chain (a, a.b, a.b.c,
// a[0], a[i]) for textual matching of guard conditions against call
// receivers; chains rooted at calls return "" (not matchable). Index
// keys use constant text or the index variable's identity, so bufs[0]
// and bufs[1] stay distinct while two mentions of bufs[i] match.
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		// Key on the object so shadowing never aliases two variables.
		if obj := info.ObjectOf(e); obj != nil {
			return objKey(obj)
		}
		return ""
	case *ast.SelectorExpr:
		base := exprKey(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := exprKey(info, e.X)
		if base == "" {
			return ""
		}
		switch idx := ast.Unparen(e.Index).(type) {
		case *ast.BasicLit:
			return base + "[" + idx.Value + "]"
		case *ast.Ident:
			if obj := info.ObjectOf(idx); obj != nil {
				return base + "[" + objKey(obj) + "]"
			}
		}
		return ""
	}
	return ""
}

func objKey(obj types.Object) string {
	// Declaration position is a stable identity even for objects with no
	// parent scope (struct fields reached through embedding).
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name()
	}
	return obj.Name() + "@" + pkg + ":" + posString(obj.Pos())
}

func posString(p token.Pos) string {
	if !p.IsValid() {
		return "-"
	}
	// token.Pos is process-stable within one FileSet; its integer value is
	// identity enough for map keys.
	var b [20]byte
	i := len(b)
	v := int(p)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(b[i:])
}

// --- Sequential-order reasoning -------------------------------------------
//
// A syntactic order for checks that need no CFG (fbuflife's Free-site
// order, obshook's early-exit guards): event A "may precede" event B when
// A's enclosing statement, in the deepest block that contains both, comes
// strictly before B's. Events in sibling arms of the same if/switch share
// that top-level statement and are treated as mutually exclusive (never
// ordered), which removes the classic if/else-arm false positive.

// stmtPath records, outermost first, the statement chain enclosing a node.
type stmtPath []ast.Stmt

// pathTo computes the enclosing-statement chain of pos within fn's body.
func pathTo(body *ast.BlockStmt, pos token.Pos) stmtPath {
	var path stmtPath
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > pos || n.End() <= pos {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			path = append(path, s)
		}
		return true
	}
	ast.Inspect(body, walk)
	return path
}

// mayPrecede reports whether an event with path a sequentially precedes
// one with path b: at the first level where the chains diverge, a's
// statement ends before b's begins — unless the divergence happens across
// mutually-exclusive branches of one if/switch/select, which are never
// ordered (this removes the classic else-arm false positive). The
// analysis is a may-analysis: an event inside a conditional still
// precedes everything after the conditional.
func mayPrecede(a, b stmtPath) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		if i > 0 {
			switch a[i-1].(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// Different arms of the same branch statement.
				return false
			}
		}
		return a[i].End() <= b[i].Pos()
	}
	return false
}
