package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetMainStandalone drives fbufvet's command line over a throwaway
// module with time.Now planted in a non-test file and in a _test.go file.
// The test-file plant is not analyzed, so ./... reports exactly one
// detlint finding, at the non-test file, and exits 2; -sarif carries the
// same one result, and a pattern naming only a clean package exits 0.
// With the plant gone the run is clean and exits 0, and an unknown flag
// (the per-analyzer switches and -json are gone) exits 1.
func TestVetMainStandalone(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const planted = "package p\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n"
	write("go.mod", "module example.com/plant\n\ngo 1.22\n")
	write("p/p.go", planted)
	write("p/p_test.go", strings.Replace(planted, "Stamp", "stampTest", 1))
	write("q/q.go", "package q\n")

	// vet runs fbufvet from the package directory, so the module root is
	// found by walking up.
	vet := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := vetMain(args, filepath.Join(root, "p"), &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	sarifResults := func(doc string) []sarifResult {
		t.Helper()
		var log sarifLog
		if err := json.Unmarshal([]byte(doc), &log); err != nil {
			t.Fatalf("SARIF output is not JSON: %v\n%s", err, doc)
		}
		if len(log.Runs) != 1 {
			t.Fatalf("SARIF has %d runs, want 1", len(log.Runs))
		}
		return log.Runs[0].Results
	}

	code, _, stderr := vet("./...")
	if code != 2 {
		t.Errorf("planted run exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "p.go:5:") || !strings.Contains(lines[0], ": detlint: time.Now") {
		t.Errorf("want one detlint finding at p/p.go:5, got:\n%s", stderr)
	}

	// Package and tree patterns select the planted package or not.
	for _, tc := range []struct {
		pattern string
		want    int
	}{
		{"./p/...", 2}, {"example.com/plant/p", 2}, {"./q/...", 0}, {"./q", 0},
	} {
		if code, _, stderr := vet(tc.pattern); code != tc.want {
			t.Errorf("pattern %s: exit = %d, want %d; stderr:\n%s", tc.pattern, code, tc.want, stderr)
		}
	}

	code, stdout, _ := vet("-sarif", "./...")
	if code != 2 {
		t.Errorf("planted -sarif run exit = %d, want 2", code)
	}
	if res := sarifResults(stdout); len(res) != 1 || res[0].RuleID != "detlint" ||
		filepath.Base(res[0].Locations[0].PhysicalLocation.ArtifactLocation.URI) != "p.go" {
		t.Errorf("want one detlint SARIF result at p.go, got %+v", res)
	}

	write("p/p.go", "package p\n")
	write("p/p_test.go", "package p\n")
	if code, _, stderr := vet("./..."); code != 0 || stderr != "" {
		t.Errorf("clean run exit = %d, stderr %q; want 0 and no output", code, stderr)
	}
	code, stdout, _ = vet("-sarif")
	if code != 0 {
		t.Errorf("clean -sarif run exit = %d, want 0", code)
	}
	if res := sarifResults(stdout); len(res) != 0 {
		t.Errorf("clean run has %d SARIF results, want 0", len(res))
	}
	for _, flag := range []string{"-json", "-detlint=false"} {
		if code, _, _ := vet(flag, "./..."); code != 1 {
			t.Errorf("%s: exit = %d, want 1 (unknown flag)", flag, code)
		}
	}
}
