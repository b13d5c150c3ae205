package analysis

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// VetMain is the entry point for cmd/fbufvet: it analyzes the module that
// holds the working directory and exits with vetMain's code. It never
// returns.
func VetMain() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(vetMain(os.Args[1:], dir, os.Stdout, os.Stderr))
}

// vetMain parses fbufvet's command line, finds the module root above dir
// and runs every analyzer over the packages the patterns name. It returns
// 0 when clean, 2 on findings and 1 on an internal error.
func vetMain(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbufvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 on stdout")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return runStandalone(root, fs.Args(), *sarifOut, stdout, stderr)
}

// runStandalone type-checks the module's packages from source through
// Loader and applies the whole suite. Findings go to stderr in
// file:line:col form, or with sarif into one SARIF document on stdout
// covering every package, suitable for archiving as a CI artifact.
func runStandalone(root string, patterns []string, sarifOut bool, stdout, stderr io.Writer) int {
	loader, err := NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	paths, err := resolvePatterns(loader, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var all []Diagnostic
	for _, importPath := range paths {
		p, err := loader.Load(importPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		diags, err := RunAnalyzers(loader.Fset, p.Files, p.Pkg, p.Info, All())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		all = append(all, diags...)
	}
	if sarifOut {
		if err := WriteSARIF(stdout, loader.Fset, all); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(stderr, "%s: %s: %s\n", loader.Fset.Position(d.Pos), d.Category, d.Message)
		}
	}
	if len(all) > 0 {
		return 2
	}
	return 0
}

// resolvePatterns maps command-line patterns to module import paths: a
// package path, relative ("./internal/core") or full ("fbufs/internal/core"),
// or a tree ending in "/..." ("./...", "./internal/..."); "all" and no
// pattern mean the whole module.
func resolvePatterns(loader *Loader, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	var out []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		if pat == "all" {
			pat = "./..."
		}
		dir, tree := strings.CutSuffix(pat, "/...")
		p := loader.ModulePath
		if rel := strings.TrimPrefix(dir, "./"); rel != "." && rel != p {
			p = loader.ModulePath + "/" + strings.TrimPrefix(rel, loader.ModulePath+"/")
		}
		if !tree {
			add(p)
			continue
		}
		for _, q := range all {
			if q == p || strings.HasPrefix(q, p+"/") {
				add(q)
			}
		}
	}
	return out, nil
}

// findModuleRoot returns the nearest directory at or above dir that holds
// a go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
