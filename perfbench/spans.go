// Host-time measurement: this file stamps spans on the host clock, so it reads
// the wall clock on purpose. Its numbers depend on the machine and never
// feed the simulator, whose determinism contract it sits outside.
//
//detlint:parallel

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fbufs/internal/simtime"
)

// call names a public call the pipeline workload times; callMsg is the
// per-message root span.
type call uint8

const (
	callMsg      call = iota
	callBuild         // Ctx.NewData + Ctx.Push
	callTransfer      // Msg.Transfer
	callIPC           // ipc.Router.Call, excluding the handler's Open
	callOpen          // aggregate.Open in the IPC handler
	callFree          // Msg.Free
	callEdit          // Ctx.Pop + Ctx.Split + Ctx.Join
	callSecure        // Msg.Secure
	callRead          // Msg.Read
	callNotice        // Manager.DeliverNotices
	numCalls
)

var callNames = [numCalls]string{
	"msg", "aggregate.build", "core.transfer", "ipc.call", "aggregate.open",
	"core.free", "aggregate.edit", "core.secure", "vm.read", "core.notice",
}

// heapCall reports whether the call's Go heap delta is recorded.
func (c call) heapCall() bool { return c == callBuild || c == callEdit || c == callOpen }

// spanRec is one recorded span. Times are host nanoseconds since the
// tracer started and simulated nanoseconds on the host's clock.
type spanRec struct {
	Msg      int    `json:"msg"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the message's root span
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	SimStart int64  `json:"sim_start_ns"`
	SimEnd   int64  `json:"sim_end_ns"`

	call                call
	childHost, childSim int64 // time covered by child spans
	heap0               heapCounts
}

// keepMsgs is how many of the latest messages' spans stay in memory to be
// written out when the run ends.
const keepMsgs = 64

// tracer records a span around every public call of the pipeline loop and
// folds each span's self time (duration minus the time its children cover)
// per call. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	clock func() simtime.Time
	heap  *heapReader

	msg   int
	spans []spanRec // the current message's spans; spans[0] is the root
	stack []int

	// Folded over the messages where accumulate was set.
	accumulate bool
	msgs       int
	selfHost   [numCalls]int64
	selfSim    [numCalls]int64
	heapDelta  [numCalls]heapCounts
	overhead   int64 // host ns of the tracer's own heap reads

	kept [][]spanRec // ring of the latest messages' spans
}

func newTracer(clock func() simtime.Time) *tracer {
	return &tracer{epoch: time.Now(), clock: clock, heap: newHeapReader()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginMsg opens message id's root span.
func (t *tracer) beginMsg(id int) {
	if t == nil {
		return
	}
	t.msg = id
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.begin(callMsg)
}

// begin opens a child span of the innermost open span.
func (t *tracer) begin(c call) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := spanRec{Msg: t.msg, ID: len(t.spans), Parent: parent, Name: callNames[c], call: c}
	if c.heapCall() {
		// The heap read happens outside the span; its time counts as
		// covered in the parent so no layer is charged for it.
		before := t.now()
		s.heap0 = t.heap.read()
		s.Start = t.now()
		t.skip(parent, s.Start-before)
	} else {
		s.Start = t.now()
	}
	s.SimStart = int64(t.clock())
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s.ID)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = t.now()
	s.SimEnd = int64(t.clock())
	if s.call.heapCall() {
		d := t.heap.read().sub(s.heap0)
		t.skip(s.Parent, t.now()-s.End)
		if t.accumulate {
			t.heapDelta[s.call].bytes += d.bytes
			t.heapDelta[s.call].objects += d.objects
		}
	}
	host, sim := s.End-s.Start, s.SimEnd-s.SimStart
	t.cover(s.Parent, host, sim)
	if t.accumulate {
		t.selfHost[s.call] += host - s.childHost
		t.selfSim[s.call] += sim - s.childSim
	}
}

// cover marks host and sim time inside span id as covered by a child.
func (t *tracer) cover(id int, host, sim int64) {
	if id >= 0 {
		t.spans[id].childHost += host
		t.spans[id].childSim += sim
	}
}

// skip marks host time inside span id as spent by the tracer itself, so no
// span's self time includes it.
func (t *tracer) skip(id int, host int64) {
	t.cover(id, host, 0)
	if t.accumulate {
		t.overhead += host
	}
}

// endMsg closes the root span and keeps the message's spans.
func (t *tracer) endMsg() {
	if t == nil {
		return
	}
	t.end()
	if t.accumulate {
		t.msgs++
	}
	if i := (t.msg - 1) % keepMsgs; i < len(t.kept) {
		t.kept[i] = append(t.kept[i][:0], t.spans...)
	} else {
		t.kept = append(t.kept, append([]spanRec(nil), t.spans...))
	}
}

// writeSpans writes the spans a traced run kept in memory to the output
// directory, once the run has ended.
func writeSpans(o options, spans interface{}) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]interface{}{
		"workload": o.workload, "seed": o.seed, "host": hostStamp(), "spans": spans,
	})
	if err != nil {
		return err
	}
	name := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(name, b, 0o644)
}
