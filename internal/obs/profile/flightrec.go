package profile

import (
	"fmt"
	"io"
	"os"
	"sync"

	"fbufs/internal/obs"
	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
)

// Anomaly is one trigger recorded by the flight recorder.
type Anomaly struct {
	At     simtime.Time `json:"at_ns"`
	Kind   string       `json:"kind"`
	Detail string       `json:"detail"`
}

// FlightRecorder is the always-on bounded crash-dump facility: when an
// anomaly trips (end-to-end latency over threshold, allocation failure,
// copy-path fallback, a fault-plane verdict), it renders the completed
// traces the observer's span recorder retains as a Perfetto (Chrome
// trace-event) file. The span recorder's bound is the dump's bound.
//
// A nil *FlightRecorder ignores every call, matching the obs discipline.
type FlightRecorder struct {
	mu  sync.Mutex
	obs *obs.Observer

	threshNs    int64  // 0: latency trigger disabled
	threshLabel string // label the latency trigger applies to; "": any

	cursor    uint64 // Tracer.Since cursor for ScanEvents
	anomalies []Anomaly
}

// maxAnomalies bounds the recorded trigger list; later trips keep the
// tripped state but stop accumulating detail.
const maxAnomalies = 64

// anomalousEvents maps tracer event kinds to flight-recorder triggers:
// quota/pool exhaustion, the copy-path fallback engaging, and fault-plane
// verdicts. (EvCopyRecover and EvCRCDrop are expected behavior on a
// configured lossy link and do not trip.)
var anomalousEvents = map[obs.EventKind]string{
	obs.EvAllocFailed:  "alloc-failed",
	obs.EvCopyFallback: "copy-fallback",
	obs.EvLinkFault:    "link-fault",
	obs.EvDomainCrash:  "domain-crash",
}

// NewFlightRecorder creates a recorder over o, pulling traces and events
// from it at scan and dump time.
func NewFlightRecorder(o *obs.Observer) *FlightRecorder {
	return &FlightRecorder{obs: o}
}

// SetLatencyThreshold arms the latency trigger: a completed trace with the
// given label (or any label when label is "") whose end-to-end duration
// exceeds ns trips the recorder. ns <= 0 disarms. Safe on nil.
func (fr *FlightRecorder) SetLatencyThreshold(label string, ns int64) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.threshLabel, fr.threshNs = label, ns
	fr.mu.Unlock()
}

// OnTrace checks a completed trace against the latency trigger. Safe on
// nil; wired via profile.Attach.
func (fr *FlightRecorder) OnTrace(tr span.Trace) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	if fr.threshNs > 0 && int64(tr.Dur()) > fr.threshNs &&
		(fr.threshLabel == "" || fr.threshLabel == tr.Label) {
		fr.tripLocked(tr.End, "latency",
			fmt.Sprintf("%s trace %d: %s > %s threshold",
				tr.Label, tr.ID, tr.Dur(), simtime.Time(fr.threshNs)))
	}
	fr.mu.Unlock()
}

func (fr *FlightRecorder) tripLocked(at simtime.Time, kind, detail string) {
	if len(fr.anomalies) < maxAnomalies {
		fr.anomalies = append(fr.anomalies, Anomaly{At: at, Kind: kind, Detail: detail})
	}
}

// ScanEvents drains tracer events emitted since the previous scan and trips
// on the anomalous kinds (allocation failure, copy fallback, link fault,
// domain crash). Call it periodically or once at the end of a run. Safe on
// nil.
func (fr *FlightRecorder) ScanEvents() {
	if fr == nil || fr.obs == nil || fr.obs.Tracer == nil {
		return
	}
	fr.mu.Lock()
	evs := fr.obs.Tracer.Since(fr.cursor)
	fr.cursor = fr.obs.Tracer.Total()
	for _, e := range evs {
		if kind, ok := anomalousEvents[e.Kind]; ok {
			fr.tripLocked(e.At, kind,
				fmt.Sprintf("%s domain=%d path=%d arg=%d", e.Kind, e.Domain, e.Path, e.Arg))
		}
	}
	fr.mu.Unlock()
}

// Tripped reports whether any anomaly has fired, and the first one.
// Safe on nil.
func (fr *FlightRecorder) Tripped() (bool, Anomaly) {
	if fr == nil {
		return false, Anomaly{}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.anomalies) == 0 {
		return false, Anomaly{}
	}
	return true, fr.anomalies[0]
}

// Anomalies returns a copy of the recorded triggers. Safe on nil.
func (fr *FlightRecorder) Anomalies() []Anomaly {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]Anomaly, len(fr.anomalies))
	copy(out, fr.anomalies)
	return out
}

// WriteDump renders the span recorder's retained traces and the anomalies
// as Chrome trace-event JSON loadable in Perfetto. Spans are "X" (complete)
// events — pid is the span's actor mapped as in the event exporter (actor
// -1 becomes the reserved "host" pid 0), tid is the owning trace ID — and
// anomalies are instant events on the host track. Output is deterministic:
// traces oldest first, spans in recorded order, actors sorted. Safe on nil.
func (fr *FlightRecorder) WriteDump(w io.Writer) error {
	cw := obs.NewChromeWriter()
	if fr == nil {
		return cw.Flush(w)
	}
	fr.mu.Lock()
	anomalies := make([]Anomaly, len(fr.anomalies))
	copy(anomalies, fr.anomalies)
	o := fr.obs
	fr.mu.Unlock()
	var traces []span.Trace
	var tracer *obs.Tracer
	if o != nil {
		traces = o.Spans.Completed()
		tracer = o.Tracer
	}

	// Process metadata for every actor referenced; the host actor (pid 0)
	// is always present for actor-less spans and the anomaly track.
	actors := map[int]bool{obs.NoActor: true}
	for _, tr := range traces {
		for _, s := range tr.Spans {
			actors[s.Actor] = true
		}
	}
	cw.Processes(tracer, actors)
	for _, tr := range traces {
		for _, s := range tr.Spans {
			dur := s.Dur()
			if dur < 0 {
				dur = 0
			}
			cw.Event(`{"ph":"X","name":%s,"cat":"span","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"trace":%d,"label":%s,"arg":%d}}`,
				obs.Quote(s.Stage.String()+" "+s.Layer), obs.PidOf(s.Actor), tr.ID,
				obs.Micros(s.Start), obs.Micros(dur), tr.ID, obs.Quote(tr.Label), s.Arg)
		}
	}
	for _, a := range anomalies {
		cw.Event(`{"ph":"i","name":%s,"cat":"anomaly","pid":0,"tid":0,"ts":%s,"s":"g","args":{"detail":%s}}`,
			obs.Quote("anomaly:"+a.Kind), obs.Micros(a.At), obs.Quote(a.Detail))
	}
	return cw.Flush(w)
}

// DumpIfTripped writes the dump to path when an anomaly has fired and
// reports whether it did. Safe on nil.
func (fr *FlightRecorder) DumpIfTripped(path string) (bool, error) {
	tripped, _ := fr.Tripped()
	if !tripped {
		return false, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return true, err
	}
	if err := fr.WriteDump(f); err != nil {
		f.Close()
		return true, err
	}
	return true, f.Close()
}
