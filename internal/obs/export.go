package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeWriter builds one Chrome trace-event JSON document, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: the header, one event
// object per line with separators, and the footer. The tracer's event
// export and the flight recorder's span dump both write through it, so they
// share one pid mapping (PidOf), one string quoting (Quote) and one
// timestamp format (Micros).
type ChromeWriter struct {
	b bytes.Buffer
	n int // events written
}

// NewChromeWriter starts a document.
func NewChromeWriter() *ChromeWriter {
	cw := &ChromeWriter{}
	cw.b.WriteString("{\"traceEvents\":[\n")
	return cw
}

// Event appends one event object, formatted as by fmt.Sprintf.
func (cw *ChromeWriter) Event(format string, args ...any) {
	if cw.n > 0 {
		cw.b.WriteString(",\n")
	}
	cw.n++
	fmt.Fprintf(&cw.b, format, args...)
}

// Processes appends the process_name metadata of every actor in the set,
// in pid order, named as names resolves them (nil names: the defaults).
func (cw *ChromeWriter) Processes(names *Tracer, actors map[int]bool) {
	ids := make([]int, 0, len(actors))
	for a := range actors {
		ids = append(ids, a)
	}
	sort.Ints(ids)
	for _, a := range ids {
		cw.Event(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`,
			PidOf(a), Quote(names.ActorName(a)))
	}
}

// Flush closes the document and writes it to w.
func (cw *ChromeWriter) Flush(w io.Writer) error {
	cw.b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	_, err := w.Write(cw.b.Bytes())
	return err
}

// Micros renders simulated nanoseconds as trace microseconds with three
// decimals (1 trace microsecond = 1 simulated microsecond).
type Micros int64

func (m Micros) String() string {
	return fmt.Sprintf("%d.%03d", int64(m)/1000, int64(m)%1000)
}

// PidOf maps a trace actor to a Chrome pid: actor NoActor (-1, ownerless
// events) becomes the reserved "host" pid 0 and domains shift up by one,
// keeping every exported pid non-negative.
func PidOf(actor int) int { return actor + 1 }

// tidOf maps a track id to a Chrome tid the same way. Chrome tids are
// per-pid and must be >= 0; track NoTrack (-1, host-level events) becomes
// tid 0 and paths shift up by one.
func tidOf(path int) int { return path + 1 }

// Quote renders s as a JSON string literal.
func Quote(s string) string {
	data, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `"?"`
	}
	return string(data)
}

// WriteChromeTrace writes the held events as Chrome trace-event JSON.
// Domains appear as processes and data paths as named threads ("tracks")
// within them; every event is an instant event on the simulated clock.
// Output is deterministic: events in emission order, metadata sorted by id.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()

	// Collect the (actor, track) pairs present so each gets metadata.
	type key struct{ actor, path int }
	actors := map[int]bool{}
	pairSet := map[key]bool{}
	for _, e := range evs {
		actors[e.Domain] = true
		pairSet[key{e.Domain, e.Path}] = true
	}
	pairs := make([]key, 0, len(pairSet))
	for k := range pairSet {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].actor != pairs[j].actor {
			return pairs[i].actor < pairs[j].actor
		}
		return pairs[i].path < pairs[j].path
	})

	cw := NewChromeWriter()
	cw.Processes(t, actors)
	for _, k := range pairs {
		cw.Event(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
			PidOf(k.actor), tidOf(k.path), Quote(t.TrackName(k.path)))
	}
	for _, e := range evs {
		cw.Event(`{"ph":"i","name":%s,"pid":%d,"tid":%d,"ts":%s,"s":"t","args":{"gen":%d,"arg":%d}}`,
			Quote(e.Kind.String()), PidOf(e.Domain), tidOf(e.Path), Micros(e.At), e.Gen, e.Arg)
	}
	return cw.Flush(w)
}

// Format renders one event as a human-readable timeline line, resolving
// actor and track names.
func (t *Tracer) Format(e Event) string {
	ns := int64(e.At)
	return fmt.Sprintf("%7d.%03dus %-14s %-12s %-12s gen=%-3d arg=%d",
		ns/1000, ns%1000, e.Kind, t.ActorName(e.Domain), t.TrackName(e.Path), e.Gen, e.Arg)
}
