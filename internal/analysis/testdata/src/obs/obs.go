// Package obs stubs fbufs/internal/obs for the obshook corpus.
package obs

type Observer struct{}

// New never returns nil — obshook whitelists receivers provably
// assigned from it.
func New(eventCap int) *Observer { return &Observer{} }

func (o *Observer) Emit(kind string)        {}
func (o *Observer) Now() int64              { return 0 }
func (o *Observer) SetNow(now func() int64) {}

func (o *Observer) SpanBegin(stage, layer string, actor int, arg int64) {}
func (o *Observer) SpanEnd()                                            {}
