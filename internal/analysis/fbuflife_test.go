package analysis

import (
	"go/token"
	"testing"
)

func TestFbufLife(t *testing.T) {
	RunTest(t, "testdata/src", FbufLife, "fbuflife")
}

// TestFbufLifeBeyondFbufcheck is the separating witness the interprocedural
// analysis exists for: the fbuflife corpus is full of lifecycle bugs
// (leaks, use-after-transfer, double frees, goroutine handoffs — all
// routed through helper functions), yet the function-local fbufcheck
// reports nothing on it. Every `// want` in that corpus is therefore a
// bug only fbuflife can see.
func TestFbufLifeBeyondFbufcheck(t *testing.T) {
	loader, err := NewLoader("", "testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.Load("fbuflife")
	if err != nil {
		t.Fatal(err)
	}
	check, err := RunAnalyzers(loader.Fset, p.Files, p.Pkg, p.Info, []*Analyzer{FbufCheck})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range check {
		t.Errorf("fbufcheck unexpectedly fired on the fbuflife corpus: %s: %s",
			loader.Fset.Position(d.Pos), d.Message)
	}
	life, err := RunAnalyzers(loader.Fset, p.Files, p.Pkg, p.Info, []*Analyzer{FbufLife})
	if err != nil {
		t.Fatal(err)
	}
	if len(life) == 0 {
		t.Fatal("fbuflife found nothing on its own corpus — the separating test is vacuous")
	}
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
