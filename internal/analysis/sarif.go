package analysis

import (
	"encoding/json"
	"go/token"
	"io"
	"sort"
)

// SARIF 2.1.0 output — the minimal profile CI archives as a build
// artifact and code-scanning UIs ingest. One run, one driver (fbufvet),
// one reportingDescriptor per analyzer, one result per diagnostic.
// Everything is emitted in deterministic order (rules sorted by id,
// results already position-sorted by RunAnalyzers) so the document is
// byte-stable for a given tree — which is what lets the golden test
// diff it exactly.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	Version        string      `json:"version"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF encodes diags as one SARIF 2.1.0 document. The rule table
// always lists the full registered suite (sorted by name), so a clean
// run still documents what was checked.
func WriteSARIF(w io.Writer, fset *token.FileSet, diags []Diagnostic) error {
	rules := make([]sarifRule, 0, len(All()))
	index := map[string]int{}
	for _, a := range All() {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	for i, r := range rules {
		index[r.ID] = i
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		idx := -1
		if i, ok := index[d.Category]; ok {
			idx = i
		}
		results = append(results, sarifResult{
			RuleID:    d.Category,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: pos.Filename},
					Region:           sarifRegion{StartLine: pos.Line, StartColumn: pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:    "fbufvet",
				Version: "1.0.0",
				Rules:   rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(log)
}
