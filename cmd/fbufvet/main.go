// Command fbufvet is the fbuf protocol invariant checker. Run it from
// inside the module:
//
//	fbufvet [-sarif] [packages]   # default ./...
//
// It type-checks the module's packages from source and applies six
// analyzers — fbufcheck, fbuflife, errflow, detlint, obshook, lockorder —
// to each. Findings print as file:line:col lines on stderr; -sarif writes
// them instead as one SARIF 2.1.0 document on stdout, for CI artifact
// upload. It exits 0 when clean, 2 on findings and 1 on an internal
// error. See internal/analysis for what each analyzer checks and why.
package main

import "fbufs/internal/analysis"

func main() {
	analysis.VetMain()
}
