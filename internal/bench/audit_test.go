package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestAuditAttribution(t *testing.T) {
	a, err := Audit()
	if err != nil {
		t.Fatal(err)
	}
	pr := a.Profile.Path("data")
	if pr == nil {
		t.Fatal("audit run produced no data-path attribution")
	}
	if pr.Traces != auditCount {
		t.Errorf("data path traces = %d, want %d", pr.Traces, auditCount)
	}
	// Acceptance: the per-stage attribution must sum to the end-to-end
	// time within 5% (the timeline fold makes it exact).
	if pr.E2ETotalNs == 0 {
		t.Fatal("e2e total is zero")
	}
	gap := math.Abs(float64(pr.AttributedNs)-float64(pr.E2ETotalNs)) / float64(pr.E2ETotalNs)
	if gap > 0.05 {
		t.Errorf("attribution %d vs e2e %d: off by %.1f%%", pr.AttributedNs, pr.E2ETotalNs, 100*gap)
	}
	// The cached path's cost structure: control transfer must appear —
	// the audit config runs with rings on, so it shows up as charged
	// ring-doorbell time rather than legacy ipc — and wire time must be
	// attributed.
	var sawDoorbell, sawLink bool
	for _, row := range pr.Stages {
		if row.Layer == "ring-doorbell" && row.Stage == "ring" {
			sawDoorbell = true
		}
		if row.Layer == "net" && row.Stage == "link" {
			sawLink = true
		}
	}
	if !sawDoorbell {
		t.Error("no ring-doorbell stage in data-path attribution")
	}
	if !sawLink {
		t.Error("no net/link stage in data-path attribution")
	}
	// Acks trace separately.
	if a.Profile.Path("ack") == nil {
		t.Error("no ack path in profile")
	}
	// Clean run: the flight recorder must not have tripped.
	if tripped, an := a.Recorder.Tripped(); tripped {
		t.Errorf("flight recorder tripped on clean run: %s %s", an.Kind, an.Detail)
	}
}

// TestAuditReportAndCompare checks the audit plane's report experiment:
// its headline is the nonzero e2e p99, and the flight recorder's dump
// loads. TestReportMatchesCheckedIn compares its values with the
// checked-in report.
func TestAuditReportAndCompare(t *testing.T) {
	a, err := Audit()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := a.AuditExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if exp.Headline <= 0 {
		t.Fatal("audit headline p99 is zero")
	}
	if exp.Values["e2e p99_ns"] != exp.Headline {
		t.Error("headline is not the e2e p99")
	}

	// The flight recorder's dump must be loadable Perfetto JSON even
	// untripped (fbufbench -audit-trace writes it).
	var dump bytes.Buffer
	if err := a.Recorder.WriteDump(&dump); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(dump.Bytes(), &parsed); err != nil {
		t.Fatalf("audit dump is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("audit dump has no trace events")
	}
}
