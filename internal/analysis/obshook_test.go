package analysis

import (
	"testing"
)

func TestObsHook(t *testing.T) {
	RunTest(t, "testdata/src", ObsHook, "obshook")
}

// TestSuiteRegistry pins the analyzer set: fbufvet, the SARIF rule table
// and the docs all enumerate these six.
func TestSuiteRegistry(t *testing.T) {
	want := []string{"fbufcheck", "fbuflife", "errflow", "detlint", "obshook", "lockorder"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name, name)
		}
	}
}

// TestModuleClean runs the full suite over the real module source — the
// analyzer-clean property the tree must keep (the same loader and suite
// CI's fbufvet job runs through cmd/fbufvet).
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages: %v", pkgs)
	}
	for _, importPath := range pkgs {
		p, err := loader.Load(importPath)
		if err != nil {
			t.Fatalf("load %s: %v", importPath, err)
		}
		diags, err := RunAnalyzers(loader.Fset, p.Files, p.Pkg, p.Info, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", loader.Fset.Position(d.Pos), d.Category, d.Message)
		}
	}
}
