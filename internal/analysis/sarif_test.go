package analysis

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestSARIFGolden locks the SARIF document byte for byte: rule table
// from the registered suite sorted by id, results in position order,
// stable indentation. Regenerate with:
//
//	WRITE_GOLDEN=1 go test ./internal/analysis -run TestSARIFGolden
func TestSARIFGolden(t *testing.T) {
	fset := token.NewFileSet()
	const src = `package p

func a() {}
func b() {}
`
	f, err := parser.ParseFile(fset, "example/p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := f.Decls
	if len(decls) < 2 {
		t.Fatal("test source must have two decls")
	}
	diags := []Diagnostic{
		{Pos: decls[0].Pos(), Category: "errflow", Message: "error from Manager.Transfer is implicitly discarded"},
		{Pos: decls[1].Pos(), Category: "fbuflife", Message: "fbuf allocated here escapes the function with no Free, Transfer, or stored reference (leak; paper §3.2.1)"},
	}

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, diags); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "sarif_golden.json")
	if os.Getenv("WRITE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with WRITE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(regenerate with WRITE_GOLDEN=1 if the change is intended)",
			buf.Bytes(), want)
	}
}

// TestSARIFEmpty: a clean run still produces a well-formed document with
// the full rule table and an empty (not null) results array.
func TestSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, token.NewFileSet(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, a := range All() {
		if !bytes.Contains(buf.Bytes(), []byte(`"id": "`+a.Name+`"`)) {
			t.Errorf("rule table missing analyzer %q:\n%s", a.Name, out)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"results": []`)) {
		t.Errorf("empty run must emit an empty results array:\n%s", out)
	}
}
