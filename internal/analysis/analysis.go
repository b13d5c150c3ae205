// Package analysis is fbufvet's compile-time invariant analyzer suite: a
// self-contained static-analysis framework (modelled on the
// golang.org/x/tools/go/analysis API, but built entirely on the standard
// library so the repo stays dependency-free) plus the five analyzers that
// machine-check the fbuf protocol discipline the paper's safety argument
// rests on:
//
//   - fbuflife: the one ownership analyzer, an interprocedural lifecycle
//     typestate analysis — a per-function CFG dataflow engine plus
//     bottom-up call-graph summaries (DESIGN.md §13) — catching leaks,
//     writes after Transfer or Secure, use after Free and double frees
//     (sections 2.1.2, 3.2.1), a receiver's unsecured read of a volatile
//     fbuf (3.2.4), batch element ownership, and goroutine handoffs
//     without a transfer point, inside one body or through helpers.
//   - errflow: errors from the core/aggregate/vm APIs encode protection
//     faults and must never be silently discarded.
//   - detlint: the simulator's determinism contract — no wall-clock time,
//     no unseeded randomness, no goroutines, no map-iteration-ordered
//     output in simulator code.
//   - obshook: every hot-path obs.Observer call sits behind the single
//     nil-check pattern, and observer-guarded blocks charge zero
//     simulated time.
//   - lockorder: the concurrency layer's documented lock ranking — no
//     function acquires a ranked mutex while directly holding a
//     higher-ranked one (DESIGN.md §10).
//
// The suite runs two ways: cmd/fbufvet type-checks the module from source
// through Loader and applies every analyzer (TestModuleClean does the
// same in go test), and analysistest-style unit tests run one analyzer
// over a `// want`-annotated corpus (RunTest).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and SARIF rules.
	Name string
	// Doc is the one-line description, the SARIF rule's short description.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked source to an
// analyzer, along with the diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full fbufvet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{FbufLife, ErrFlow, DetLint, ObsHook, LockOrder}
}

// RunAnalyzers applies the analyzers to one type-checked package and
// returns the combined diagnostics sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	return dedupeDiagnostics(out), nil
}

// dedupeDiagnostics sorts findings into a stable (position, category,
// message) order — independent of analyzer registration order — and
// drops exact duplicates at one position (several analyzers convicting
// the same line with the same words should read as one finding).
func dedupeDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Pos == out[len(out)-1].Pos && d.Message == out[len(out)-1].Message {
			continue
		}
		out = append(out, d)
	}
	return out
}

// NewTypesInfo allocates a types.Info with every map analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
