// Package a is the fbuflife corpus: every violation here crosses a
// function boundary (or a goroutine), so the function-local fbufcheck
// stays silent on this entire package — TestFbufLifeBeyondFbufcheck
// asserts exactly that, making each want below a machine-checked example
// of a bug only the interprocedural analysis can see.
package a

import "core"

// --- helpers the cases route ownership through ---------------------------

// fill writes originator data; it neither frees nor transfers.
func fill(f *core.Fbuf, d *core.Domain) {
	_ = f.Write(d, 0, nil)
}

// send hands the fbuf to another domain (immutable afterwards).
func send(mgr *core.Manager, f *core.Fbuf, from, to *core.Domain) {
	_ = mgr.Transfer(f, from, to)
}

// retire drops one domain's reference.
func retire(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	_ = mgr.Free(f, d)
}

// guard raises protection on behalf of a receiver.
func guard(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	_ = mgr.Secure(f, d)
}

// retireBatch frees every element of a batch.
func retireBatch(mgr *core.Manager, fs []*core.Fbuf, d *core.Domain) {
	for _, f := range fs {
		_ = mgr.Free(f, d)
	}
}

// makeBatch is an allocator helper: its result is caller-owned.
func makeBatch(p *core.DataPath, n int) []*core.Fbuf {
	bufs := make([]*core.Fbuf, n)
	_, _ = p.AllocBatch(bufs)
	return bufs
}

type stash struct{ f *core.Fbuf }

// --- interprocedural leaks ----------------------------------------------

func leakThroughHelper(p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc() // want "escapes the function with no Free, Transfer, or stored reference"
	fill(f, d)
}

func batchLeak(p *core.DataPath) {
	bufs := make([]*core.Fbuf, 4)
	_, _ = p.AllocBatch(bufs) // want "escapes the function with no Free, Transfer, or stored reference"
	_ = bufs
}

func leakFromFreshHelper(p *core.DataPath) {
	bufs := makeBatch(p, 4) // want "escapes the function with no Free, Transfer, or stored reference"
	_ = bufs
}

func cleanFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	fill(f, d)
	retire(mgr, f, d)
}

func cleanTransfer(mgr *core.Manager, p *core.DataPath, from, to *core.Domain) {
	f, _ := p.Alloc()
	fill(f, from)
	send(mgr, f, from, to)
}

func cleanStash(p *core.DataPath, s *stash) {
	f, _ := p.Alloc()
	s.f = f // ownership parked in the struct: not a leak
}

func cleanSend(p *core.DataPath, ch chan *core.Fbuf) {
	f, _ := p.Alloc()
	ch <- f // consumer now owns it
}

func cleanReturn(p *core.DataPath) (*core.Fbuf, error) {
	return p.Alloc() // caller owns the result
}

func cleanDeferFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	defer func() { _ = mgr.Free(f, d) }()
	fill(f, d)
}

func cleanDeferHelper(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	defer retire(mgr, f, d)
	fill(f, d)
}

func cleanBatchElements(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 4)
	_, _ = p.AllocBatch(bufs)
	for _, f := range bufs {
		_ = mgr.Free(f, d) // one free per element, one element per iteration
	}
}

func loopAllocFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	for i := 0; i < 8; i++ {
		f, err := p.Alloc()
		if err != nil {
			return
		}
		fill(f, d)
		retire(mgr, f, d)
	}
}

// --- use-after-transfer / use-after-free through helpers -----------------

func writeAfterHelperTransfer(mgr *core.Manager, p *core.DataPath, from, to *core.Domain) {
	f, _ := p.Alloc()
	send(mgr, f, from, to)
	_ = f.Write(from, 0, nil) // want "write to fbuf after Transfer"
}

func writeAfterHelperSecure(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	guard(mgr, f, d)
	_ = f.Write(d, 0, nil) // want "write to fbuf after Secure"
	retire(mgr, f, d)
}

func writeAfterHelperFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	retire(mgr, f, d)
	_ = f.Write(d, 0, nil) // want "use of fbuf after Free"
}

func writeThenTransferHelper(mgr *core.Manager, p *core.DataPath, from, to *core.Domain) {
	f, _ := p.Alloc()
	_ = f.Write(from, 0, nil) // fill first: the protocol's happy path
	send(mgr, f, from, to)
}

// --- double-free through helpers -----------------------------------------

func doubleFreeThroughHelper(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	retire(mgr, f, d)
	retire(mgr, f, d) // want "fbuf freed twice in the same domain"
}

func freeByEachDomainHelper(mgr *core.Manager, p *core.DataPath, a, b *core.Domain) {
	f, _ := p.Alloc()
	retire(mgr, f, a)
	retire(mgr, f, b) // each domain drops its own reference: fine
}

func freeInExclusiveArms(mgr *core.Manager, p *core.DataPath, d *core.Domain, early bool) {
	f, _ := p.Alloc()
	if early {
		retire(mgr, f, d)
	} else {
		retire(mgr, f, d) // exclusive arms: only one free executes
	}
}

func dupRefSecondFree(mgr *core.Manager, p *core.DataPath, a *core.Domain) {
	f, _ := p.Alloc()
	_ = mgr.DupRef(f, a)
	retire(mgr, f, a)
	retire(mgr, f, a) // the DupRef credit licenses the second drop
}

// --- batch-slice element ownership ---------------------------------------

func batchElementDoubleFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 4)
	_, _ = p.AllocBatch(bufs)
	retireBatch(mgr, bufs, d)
	_ = mgr.Free(bufs[0], d) // want "fbuf freed twice in the same domain"
}

func freeBatchThenElements(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.FreeBatch(bufs, d)
	for _, f := range bufs {
		_ = mgr.Free(f, d) // want "fbuf freed twice in the same domain"
	}
}

func elementsThenFreeBatch(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	for _, f := range bufs {
		_ = mgr.Free(f, d)
	}
	_ = mgr.FreeBatch(bufs, d) // want "fbuf freed twice in the same domain"
}

func distinctElementsFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Free(bufs[0], d)
	_ = mgr.Free(bufs[1], d) // distinct constant indices: two buffers, two frees
}

func distinctParamElementsFree(mgr *core.Manager, bufs []*core.Fbuf, d *core.Domain) {
	_ = mgr.Free(bufs[0], d)
	_ = mgr.Free(bufs[1], d) // the same on a slice parameter
}

func sameConstElementFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	retire(mgr, bufs[1], d)
	_ = mgr.Free(bufs[1], d) // want "fbuf freed twice in the same domain"
}

func sameConstantTwoSpellings(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	retire(mgr, bufs[1], d)
	_ = mgr.Free(bufs[0x1], d) // want "fbuf freed twice in the same domain"
}

func constThenLoopElementFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	retire(mgr, bufs[0], d)
	for i := range bufs {
		_ = mgr.Free(bufs[i], d) // want "fbuf freed twice in the same domain"
	}
}

// --- goroutine handoff ----------------------------------------------------

func handoffWithoutTransfer(p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	go fill(f, d) // want "fbuf handed to goroutine while this domain still owns it"
}

func handoffAfterTransfer(mgr *core.Manager, p *core.DataPath, from, to *core.Domain) {
	f, _ := p.Alloc()
	send(mgr, f, from, to)
	go fill(f, to) // transferred first: the handoff has a documented transfer point
}
