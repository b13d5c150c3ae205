package analysis

import (
	"go/token"
	"testing"
)

func TestFbufLife(t *testing.T) {
	RunTest(t, "testdata/src", FbufLife, "fbuflife")
}

// TestFbufCheck runs fbuflife over the single-body corpus in
// testdata/src/fbufcheck: each rule applied inside one function, with no
// helper in between, the cases the function-local fbufcheck analyzer
// checked before fbuflife took its rules over.
func TestFbufCheck(t *testing.T) {
	RunTest(t, "testdata/src", FbufLife, "fbufcheck")
}

// TestDiagnosticDedupe pins the RunAnalyzers output contract fbufvet's
// text and SARIF output rely on: diagnostics arrive position-sorted, the
// order is independent of analyzer registration order, and two analyzers
// convicting the same position with the same words collapse to one line.
func TestDiagnosticDedupe(t *testing.T) {
	mkReporter := func(name string, pos token.Pos, msg string) *Analyzer {
		a := &Analyzer{Name: name, Doc: "test double"}
		a.Run = func(p *Pass) error {
			p.Reportf(pos, "%s", msg)
			return nil
		}
		return a
	}
	// Two analyzers agree at pos 10; a third reports earlier at pos 5.
	dup1 := mkReporter("aaa", 10, "same finding")
	dup2 := mkReporter("zzz", 10, "same finding")
	early := mkReporter("mmm", 5, "earlier finding")

	run := func(order []*Analyzer) []Diagnostic {
		diags, err := RunAnalyzers(token.NewFileSet(), nil, nil, nil, order)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	forward := run([]*Analyzer{dup1, dup2, early})
	backward := run([]*Analyzer{early, dup2, dup1})

	for name, got := range map[string][]Diagnostic{"forward": forward, "backward": backward} {
		if len(got) != 2 {
			t.Fatalf("%s order: got %d diagnostics, want 2 (dedupe): %v", name, len(got), got)
		}
		if got[0].Pos != 5 || got[1].Pos != 10 {
			t.Errorf("%s order: positions %d,%d, want 5,10 (sorted)", name, got[0].Pos, got[1].Pos)
		}
	}
	// Identical results regardless of registration order.
	for i := range forward {
		if forward[i] != backward[i] {
			t.Errorf("registration order changed output[%d]: %+v vs %+v",
				i, forward[i], backward[i])
		}
	}
}
