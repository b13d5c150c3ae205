// Package obs is the unified observability layer: a low-overhead structured
// event tracer and a span recorder on one simulated clock, plus the
// counter/gauge snapshot that exporters fill from the authoritative stats
// structs. Every layer of the stack (vm, core, protocols, osiris, netsim)
// emits through an *Observer attached to the host's vm.System; when no
// observer is attached every hook is a nil-check and the simulation's costs
// and results are bit-identical to running without the package.
//
// Events are stamped with simulated time, a trace actor (domain ID plus the
// host's trace base), a track (data-path ID plus trace base, or -1), and
// the fbuf's recycle generation, so a Chrome trace-event export shows
// domains as processes and data paths as tracks in Perfetto. Events and
// spans read one clock, the observer's (SetNow), so a transfer's events
// fall inside its spans; spans are the only latency record.
package obs

import (
	"sync"

	"fbufs/internal/obs/span"
	"fbufs/internal/simtime"
)

// EventKind enumerates the traced operations — the paper's cost taxonomy
// (allocation, mapping, protection, free/notice, TLB, device) as discrete
// events.
type EventKind uint8

// Event kinds. The zero value is reserved so an all-zero Event is
// recognizably empty.
const (
	EvNone EventKind = iota
	EvAlloc
	EvCacheHit
	EvCacheMiss
	EvCarve
	EvTransfer
	EvMappingBuilt
	EvSecure
	EvFree
	EvRecycle
	EvNoticeQueued
	EvNoticePiggy
	EvNoticeExplicit
	EvFrameReclaimed
	EvTLBMiss
	EvPageFault
	EvPktSend
	EvPktRecv
	EvDMAStart
	EvDMADone
	EvAllocFailed
	EvCopyFallback
	EvCopyRecover
	EvLinkFault
	EvCRCDrop
	EvDomainCrash
	EvPathEvict
	EvAdmissionReject
	EvNoticeRing

	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvNone:            "None",
	EvAlloc:           "Alloc",
	EvCacheHit:        "CacheHit",
	EvCacheMiss:       "CacheMiss",
	EvCarve:           "Carve",
	EvTransfer:        "Transfer",
	EvMappingBuilt:    "MappingBuilt",
	EvSecure:          "Secure",
	EvFree:            "Free",
	EvRecycle:         "Recycle",
	EvNoticeQueued:    "NoticeQueued",
	EvNoticePiggy:     "NoticePiggy",
	EvNoticeExplicit:  "NoticeExplicit",
	EvFrameReclaimed:  "FrameReclaimed",
	EvTLBMiss:         "TLBMiss",
	EvPageFault:       "PageFault",
	EvPktSend:         "PktSend",
	EvPktRecv:         "PktRecv",
	EvDMAStart:        "DMAStart",
	EvDMADone:         "DMADone",
	EvAllocFailed:     "AllocFailed",
	EvCopyFallback:    "CopyFallback",
	EvCopyRecover:     "CopyRecover",
	EvLinkFault:       "LinkFault",
	EvCRCDrop:         "CRCDrop",
	EvDomainCrash:     "DomainCrash",
	EvPathEvict:       "PathEvict",
	EvAdmissionReject: "AdmissionReject",
	EvNoticeRing:      "NoticeRing",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "EventKind(?)"
}

// NoTrack marks an event not associated with any data path (and NoActor an
// event not attributable to a domain).
const (
	NoActor = -1
	NoTrack = -1
)

// Event is one traced operation.
type Event struct {
	At     simtime.Time // simulated timestamp
	Kind   EventKind
	Domain int    // trace actor: domain ID + host trace base, or NoActor
	Path   int    // trace track: path ID + host trace base, or NoTrack
	Gen    uint64 // fbuf recycle generation, 0 when not fbuf-related
	Arg    int64  // kind-specific payload (pages, bytes, VPN, batch size)
}

// Tracer is a bounded ring buffer of events; the caller stamps each event
// (Observer.Emit passes its clock). A nil *Tracer is valid and ignores
// every call — the disabled fast path. The ring is guarded by a mutex so
// concurrent workers can emit into one tracer; interleaving of events from
// different workers is scheduler-dependent, which is why the
// deterministic-trace tests run in the single-threaded default mode.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // next write slot
	n     int    // valid events, <= len(buf)
	total uint64 // events ever emitted (sequence numbers)

	actors map[int]string // trace actor id -> display name
	tracks map[int]string // trace track id -> display name
}

// NewTracer creates a tracer holding at most capacity events; older events
// are overwritten once the ring fills.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		buf:    make([]Event, capacity),
		actors: make(map[int]string),
		tracks: make(map[int]string),
	}
}

// Emit records one event stamped at. Safe on a nil receiver (tracing
// disabled) and on a zero-value Tracer not built via NewTracer (no ring:
// events are dropped).
func (t *Tracer) Emit(at simtime.Time, kind EventKind, domain, path int, gen uint64, arg int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) == 0 {
		t.mu.Unlock()
		return
	}
	t.buf[t.next] = Event{At: at, Kind: kind, Domain: domain, Path: path, Gen: gen, Arg: arg}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	if t.n < len(t.buf) {
		t.n++
	}
	t.total++
	t.mu.Unlock()
}

// Count returns the number of events currently held.
func (t *Tracer) Count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.n)
}

// eventsLocked copies out the held events; t.mu must be held.
func (t *Tracer) eventsLocked() []Event {
	if t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Events returns the held events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

// Since returns the events emitted at or after sequence number seq (as
// returned by Total before an operation) that are still in the buffer.
func (t *Tracer) Since(seq uint64) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := t.eventsLocked()
	first := t.total - uint64(len(evs)) // sequence number of evs[0]
	if seq <= first {
		return evs
	}
	if seq >= t.total {
		return nil
	}
	return evs[seq-first:]
}

// SetActor names a trace actor (a domain) for the exporters.
func (t *Tracer) SetActor(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.actors == nil {
		t.actors = make(map[int]string)
	}
	t.actors[id] = name
	t.mu.Unlock()
}

// SetTrack names a trace track (a data path) for the exporters.
func (t *Tracer) SetTrack(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.tracks == nil {
		t.tracks = make(map[int]string)
	}
	t.tracks[id] = name
	t.mu.Unlock()
}

// ActorName returns the display name for an actor id.
func (t *Tracer) ActorName(id int) string {
	if t != nil {
		t.mu.Lock()
		n, ok := t.actors[id]
		t.mu.Unlock()
		if ok {
			return n
		}
	}
	if id == NoActor {
		return "host"
	}
	return "domain " + itoa(id)
}

// TrackName returns the display name for a track id.
func (t *Tracer) TrackName(id int) string {
	if t != nil {
		t.mu.Lock()
		n, ok := t.tracks[id]
		t.mu.Unlock()
		if ok {
			return n
		}
	}
	if id == NoTrack {
		return "host"
	}
	return "path " + itoa(id)
}

// Observer bundles a tracer and an optional span recorder; it is the
// single handle the simulation layers hold. A nil *Observer disables
// everything, and a nil Spans disables per-transfer tracing while events
// stay live.
type Observer struct {
	Tracer *Tracer
	Spans  *span.Recorder

	now func() simtime.Time // the one clock: event stamps and spans
}

// New creates an observer with an event ring of the given capacity.
func New(eventCap int) *Observer {
	return &Observer{Tracer: NewTracer(eventCap)}
}

// SetNow installs the simulated-clock reader that stamps events and spans.
// A host that meters a task's work installs a clock that advances with the
// task's charges while it runs (netsim's Host.Exec). Safe on nil.
func (o *Observer) SetNow(fn func() simtime.Time) {
	if o == nil {
		return
	}
	o.now = fn
}

// Now reads the attached simulated clock; zero when none is attached.
func (o *Observer) Now() simtime.Time {
	if o == nil || o.now == nil {
		return 0
	}
	return o.now()
}

// Emit records an event through the tracer, stamped with the observer's
// clock. Safe on nil.
func (o *Observer) Emit(kind EventKind, domain, path int, gen uint64, arg int64) {
	if o == nil {
		return
	}
	o.Tracer.Emit(o.Now(), kind, domain, path, gen, arg)
}

// PublishSelfMetrics writes the tracer's own ring statistics into s:
// events ever emitted, events lost to ring wraparound, and events
// currently held, so trace truncation under load (e.g. the chaos harness)
// is visible in the metrics JSON rather than only via Tracer.Dropped in
// tests. Safe on nil.
func (o *Observer) PublishSelfMetrics(s Snapshot) {
	if o == nil {
		return
	}
	s.Counters["obs.events_total"] = o.Tracer.Total()
	s.Counters["obs.events_dropped"] = o.Tracer.Dropped()
	s.Gauges["obs.events_held"] = int64(o.Tracer.Count())
}

// SpanBegin opens a child span of the current trace. Every SpanBegin must
// be paired with a SpanEnd on all return paths (the fbufvet obshook
// analyzer enforces the pairing statically). Safe on nil.
func (o *Observer) SpanBegin(stage span.Stage, layer string, actor int, arg int64) {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.Begin(stage, layer, actor, o.Now(), arg)
}

// SpanEnd closes the innermost open span. Safe on nil.
func (o *Observer) SpanEnd() {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.End(o.Now())
}

// BeginTrace opens a new transfer trace (label: transfer class, arg:
// message bytes) and makes it current; returns 0 when span recording is
// disabled. Safe on nil.
func (o *Observer) BeginTrace(label string, arg int64) uint64 {
	if o == nil || o.Spans == nil {
		return 0
	}
	return o.Spans.BeginTrace(o.Now(), label, arg)
}

// AbortTrace discards an open trace (the transfer failed). Safe on nil.
func (o *Observer) AbortTrace(id uint64) {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.AbortTrace(id)
}

// SpanRecord appends an already-timed span to a trace (link occupancy, DMA
// windows — intervals timed on the scheduler timeline rather than
// bracketing the caller's execution). Safe on nil.
func (o *Observer) SpanRecord(trace uint64, stage span.Stage, layer string, actor int, start, end simtime.Time, arg int64) {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.Record(trace, stage, layer, actor, start, end, arg)
}

// EndTrace completes a transfer trace at the observer's clock. Safe on
// nil; ending trace 0 (recording disabled) is a no-op.
func (o *Observer) EndTrace(id uint64) {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.EndTrace(id, o.Now())
}

// ResumeTrace makes a trace current — the receive side of a cross-host
// transfer whose PDUs carry the trace ID. Safe on nil.
func (o *Observer) ResumeTrace(id uint64) {
	if o == nil || o.Spans == nil {
		return
	}
	o.Spans.Resume(id)
}

// CurrentTrace returns the trace the current activation charges spans to
// (0 when none) — the value stamped on outgoing PDUs. Safe on nil.
func (o *Observer) CurrentTrace() uint64 {
	if o == nil || o.Spans == nil {
		return 0
	}
	return o.Spans.Current()
}

// itoa is strconv.Itoa without the import (keeps the hot-path file lean).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
