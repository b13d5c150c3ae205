package protocols

import (
	"fmt"

	"fbufs/internal/aggregate"
	"fbufs/internal/xkernel"
)

// TestProto is the paper's test protocol: at the sending end it creates
// messages and pushes them down; at the receiving end it plays the "dummy
// protocol" that touches one word in each page of the received message,
// deallocates it, and returns.
type TestProto struct {
	xkernel.Base
	env *xkernel.Env
	ctx *aggregate.Ctx

	// Verify makes the sink check payload contents against the pattern
	// the source wrote (integrity testing; more expensive than a touch).
	Verify bool
	// Label overrides the transfer-class label stamped on this endpoint's
	// traces (defaults to "data"). The e2e harness sets "ack" on the
	// reverse-path endpoint so each direction profiles separately.
	Label string
	// OnDeliver, if set, runs after a message is consumed — the
	// end-to-end harness hooks window acknowledgements here.
	OnDeliver func(n int)

	// Stats
	SentMsgs, SentBytes         uint64
	ReceivedMsgs, ReceivedBytes uint64
	VerifyFailures              uint64
}

// NewTestProto creates a test endpoint allocating from ctx.
func NewTestProto(env *xkernel.Env, ctx *aggregate.Ctx) *TestProto {
	return &TestProto{Base: xkernel.NewBase("test", ctx.Dom), env: env, ctx: ctx}
}

// Pattern returns the deterministic payload byte for position i of a
// message with the given sequence number.
func Pattern(seq uint64, i int) byte { return byte(uint64(i)*167 + seq*13 + 5) }

// TraceLabel names the transfer class the endpoint's traces are filed
// under in the profiler ("data" by default; the end-to-end harness labels
// its ack endpoints "ack" so acknowledgement latency does not pollute the
// data path's distribution).
func (t *TestProto) traceLabel() string {
	if t.Label != "" {
		return t.Label
	}
	return "data"
}

// Send builds an n-byte message and pushes it down the stack.
func (t *TestProto) Send(seq uint64, n int) error {
	data := make([]byte, n)
	for i := range data {
		data[i] = Pattern(seq, i)
	}
	o := t.env.Sys.Obs
	tid := o.BeginTrace(t.traceLabel(), int64(n))
	m, err := t.ctx.NewData(data)
	if err != nil {
		o.AbortTrace(tid)
		return err
	}
	t.SentMsgs++
	t.SentBytes += uint64(n)
	if err := t.PushBelow(m); err != nil {
		o.AbortTrace(tid)
		return err
	}
	return nil
}

// SendUntouched builds an n-byte message by touching one word per page
// rather than filling it — the paper's throughput-test access pattern
// ("writes one word in each VM page").
func (t *TestProto) SendUntouched(n int) error {
	o := t.env.Sys.Obs
	tid := o.BeginTrace(t.traceLabel(), int64(n))
	m, err := t.ctx.NewTouched(n)
	if err != nil {
		o.AbortTrace(tid)
		return err
	}
	t.SentMsgs++
	t.SentBytes += uint64(n)
	if err := t.PushBelow(m); err != nil {
		o.AbortTrace(tid)
		return err
	}
	return nil
}

// Deliver consumes a received message: touch (or verify) and free. This is
// where the transfer logically completes, so the current trace is ended
// here — before OnDeliver, whose acknowledgements begin traces of their
// own.
func (t *TestProto) Deliver(m *aggregate.Msg) error {
	o := t.env.Sys.Obs
	tid := o.CurrentTrace()
	n := m.Len()
	if t.Verify {
		data, err := m.ReadAll(t.Dom())
		if err != nil {
			return err
		}
		for i, b := range data {
			if b != Pattern(uint64(t.ReceivedMsgs), i) {
				t.VerifyFailures++
				break
			}
		}
	} else {
		if err := m.Touch(t.Dom()); err != nil {
			return err
		}
	}
	if err := m.Free(t.Dom()); err != nil {
		return err
	}
	t.ReceivedMsgs++
	t.ReceivedBytes += uint64(n)
	o.EndTrace(tid)
	if t.OnDeliver != nil {
		t.OnDeliver(n)
	}
	return nil
}

// Push is invalid on a test endpoint (nothing sits above it).
func (t *TestProto) Push(m *aggregate.Msg) error {
	return fmt.Errorf("protocols: test protocol is a top-level endpoint")
}
