// Package a is the obshook corpus: the hot-path nil-check discipline.
package a

import (
	"obs"
	"vm"
)

type engine struct {
	obs   *obs.Observer
	meter *vm.Meter
}

// --- Positive cases ------------------------------------------------------

func (e *engine) unguardedEmit() {
	e.obs.Emit("transfer") // want "unguarded obs.Observer.Emit"
}

func unguardedNow(o *obs.Observer) int64 {
	return o.Now() // want "unguarded obs.Observer.Now"
}

func observerFactory() *obs.Observer { return nil }

func nonAddressableReceiver() {
	observerFactory().Emit("x") // want "non-addressable receiver"
}

func (e *engine) chargeInsideGuard() {
	if e.obs != nil {
		e.obs.Emit("transfer")
		e.meter.Charge(5) // want "Clock.Charge inside an observer guard"
	}
}

// --- Negative cases ------------------------------------------------------

func (e *engine) guardedEmit() {
	if e.obs != nil {
		e.obs.Emit("transfer")
	}
}

func guardedEarlyExit(o *obs.Observer) {
	if o == nil {
		return
	}
	o.Emit("transfer")
}

func (e *engine) guardedConjunction(hot bool) {
	if e.obs != nil && hot {
		e.obs.Emit("transfer")
	}
}

func freshObserver() {
	o := obs.New(64) // obs.New never returns nil: whitelisted
	o.Emit("boot")
	o.SetNow(func() int64 { return 0 }) // setup-time method: not hot-path
}

func (e *engine) chargeOutsideGuard() {
	e.meter.Charge(5) // charging simulated time is the norm outside guards
	if e.obs != nil {
		e.obs.Emit("transfer")
	}
}

// --- Span pairing: positive cases ----------------------------------------

func (e *engine) spanLeak() {
	if e.obs != nil {
		e.obs.SpanBegin("alloc", "core", 1, 4) // want "SpanBegin without a deferred SpanEnd"
	}
}

func (e *engine) spanEndInline() {
	if e.obs != nil {
		e.obs.SpanBegin("map", "core", 1, 4) // want "SpanBegin without a deferred SpanEnd"
		e.obs.SpanEnd()                      // want "SpanEnd outside a defer"
	}
}

func spanMismatchedReceivers(a, b *obs.Observer) {
	if a == nil {
		return
	}
	if b == nil {
		return
	}
	a.SpanBegin("proto", "udp", 1, 4) // want "SpanBegin without a deferred SpanEnd"
	defer b.SpanEnd()
}

func spanUnguarded(o *obs.Observer) {
	o.SpanBegin("dma", "osiris", 1, 4) // want "unguarded obs.Observer.SpanBegin"
	defer o.SpanEnd()                  // want "unguarded obs.Observer.SpanEnd"
}

func spanFreshObserverStillPairs() {
	o := obs.New(64)                    // obs.New whitelists the guard check...
	o.SpanBegin("secure", "core", 1, 4) // want "SpanBegin without a deferred SpanEnd"
	_ = o                               // ...but not the pairing check
}

// --- Span pairing: negative cases ----------------------------------------

func (e *engine) spanBracketed() {
	if e.obs != nil {
		e.obs.SpanBegin("alloc", "core", 1, 4)
		defer e.obs.SpanEnd()
	}
}

func spanBracketedLocal(o *obs.Observer) {
	if o == nil {
		return
	}
	o.SpanBegin("fault", "vm", 1, 4)
	defer o.SpanEnd()
}

func spanLiteralScopes(o *obs.Observer) func() {
	// A nested function literal is its own scope: its bracketed span does
	// not leak a diagnostic into the enclosing function.
	return func() {
		if o != nil {
			o.SpanBegin("free", "core", 1, 4)
			defer o.SpanEnd()
		}
	}
}
