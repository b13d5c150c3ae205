package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetLint enforces the simulator's determinism contract on non-test code:
// trace and benchmark outputs must be byte-identical across runs, which
// today holds only by convention. Four sources of nondeterminism are
// banned in simulator packages (internal/..., plus anything importing
// them that declares itself simulator code):
//
//   - time.Now / time.Since / time.Until — simulated time comes from the
//     virtual clock, never the wall clock.
//   - the global math/rand source (rand.Int, rand.Float64, ...) — any
//     randomness must flow from an explicitly seeded *rand.Rand.
//   - go statements — the simulator is single-threaded by design; its
//     event order is its determinism.
//   - fmt printing driven directly by a map range — map iteration order
//     is randomized by the runtime, so output keyed on it differs per
//     run. Sorting the keys first is the accepted pattern.
//
// _test.go files are exempt (tests may race goroutines on purpose), and a
// file can opt out wholesale with a `//detlint:parallel` comment — the
// escape hatch for code that deliberately reads host time (perfbench's
// wall-clock measurement, perfbench/measure.go and perfbench/spans.go) and
// therefore sits outside the deterministic-trace contract. The pragma is
// file-scoped and visible in review; simulator packages proper must never
// carry it.
var DetLint = &Analyzer{
	Name: "detlint",
	Doc:  "forbid wall-clock time, unseeded math/rand, goroutines, and map-order-dependent output in simulator code",
	Run:  runDetLint,
}

// detlintWallClock lists banned time package functions.
var detlintWallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

func runDetLint(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) || hasParallelPragma(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(s.Pos(),
					"go statement in simulator code: the simulator is single-threaded; concurrency breaks deterministic event order")
			case *ast.CallExpr:
				fn := calleeFunc(info, s)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if detlintWallClock[fn.Name()] {
						pass.Reportf(s.Pos(),
							"time.%s in simulator code: use the virtual clock; wall-clock reads make runs unreproducible", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if isGlobalRandFunc(fn) {
						pass.Reportf(s.Pos(),
							"global math/rand source in simulator code: use an explicitly seeded *rand.Rand so runs are reproducible")
					}
				}
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, s)
			}
			return true
		})
	}
	return nil
}

// hasParallelPragma reports whether the file opts out of the determinism
// contract with a `//detlint:parallel` comment (any line of any comment
// group; conventionally placed right above the package clause).
func hasParallelPragma(file *ast.File) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == "//detlint:parallel" {
				return true
			}
		}
	}
	return false
}

// isGlobalRandFunc reports whether fn draws from the process-global
// math/rand source. Methods on *rand.Rand are fine — constructing one
// forces choosing a seed — and so are the constructors themselves
// (rand.New, rand.NewSource, rand.NewZipf), which are the approved path.
func isGlobalRandFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return !strings.HasPrefix(fn.Name(), "New")
}

// checkMapRangeOutput flags fmt printing (or writes through an
// io.Writer-style Write method) directly inside `for k := range m` where m
// is a map: the emitted order is the map's randomized iteration order.
func checkMapRangeOutput(pass *Pass, r *ast.RangeStmt) {
	info := pass.TypesInfo
	t := info.TypeOf(r.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.RangeStmt); ok && n != r {
			return false // a nested range is its own site
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		isPrint := fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
		if isPrint {
			pass.Reportf(call.Pos(),
				"output inside a map range: map iteration order is randomized; collect and sort the keys first")
			return false
		}
		return true
	})
}
