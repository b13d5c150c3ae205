package core

import (
	"fmt"
	"os"
	"sync"

	"fbufs/internal/machine"
	"fbufs/internal/mem"
	"fbufs/internal/vm"
)

// fbsan is the fbuf runtime sanitizer: an opt-in dynamic checker that
// catches protocol violations the simulated MMU cannot see.
//
//   - Use-after-free: pages of fbufs sitting on a path free list are
//     poisoned with a canary pattern; the canary is verified when the
//     fbuf is reused (and at every invariant audit). Because the page
//     contents are saved before poisoning and restored after
//     verification, simulated behavior is bit-identical with the
//     sanitizer on — cached reuse still observes its previous contents.
//   - MMU-bypass writes: DMA operations are checked against the fbuf
//     lifecycle (no DMA to non-live buffers, no DMA writes to secured
//     buffers); a DMA write to a free-listed buffer also trips the
//     canary at the next reuse.
//   - Write-permission shadow audit: every writable PTE over the fbuf
//     region must belong to the fbuf's originator while the fbuf is
//     unsecured — the invariant behind the paper's immutable-after-
//     transfer guarantee.
//   - Aggregate DAG validation: package aggregate re-validates
//     range/cycle/shape invariants on every Msg build when the
//     sanitizer is enabled (see aggregate/sanitize.go).
//
// Enable per manager with EnableSanitizer, for a whole process with the
// FBSAN=1 environment variable, or per run with `fbufsim -fbsan`. Checks
// charge zero simulated time.

// sanitizerDefault turns the sanitizer on for every new Manager when the
// FBSAN=1 environment variable is set.
var sanitizerDefault = os.Getenv("FBSAN") == "1"

// SanitizerStats counts sanitizer activity (tests assert on these).
type SanitizerStats struct {
	PoisonedPages uint64 // pages canary-filled on free
	VerifiedPages uint64 // pages canary-checked on reuse
	SkippedPages  uint64 // poisoned pages skipped (frame reclaimed meanwhile)
	DMAChecks     uint64
	ShadowAudits  uint64
	Violations    uint64
}

// Sanitizer is the per-manager fbsan state. mu guards the poison records
// and counters so the hooks stay sound under concurrent workers; it ranks
// below the path and fbuf locks (poisonFree runs under the path lock) and
// above the address-space lock (audit walks PTEs).
type Sanitizer struct {
	mgr *Manager
	// OnViolation, when set, receives each violation message instead of
	// the default panic — tests use it to assert a violation fired. Set
	// it before concurrent operation starts.
	OnViolation func(msg string)

	mu       sync.Mutex
	poisoned map[*Fbuf][]poisonPage
	stats    SanitizerStats
}

// poisonPage records one canary-filled page: which frame backed it at
// poison time (so reclamation is detected) and the bytes to restore.
type poisonPage struct {
	page  int
	frame mem.FrameNum
	saved []byte
}

// EnableSanitizer turns fbsan on for this manager (idempotent) and
// returns the sanitizer handle.
func (m *Manager) EnableSanitizer() *Sanitizer {
	if m.san == nil {
		m.san = &Sanitizer{mgr: m, poisoned: map[*Fbuf][]poisonPage{}}
	}
	return m.san
}

// Sanitizer returns the manager's sanitizer, or nil when disabled.
func (m *Manager) Sanitizer() *Sanitizer { return m.san }

// SanitizerEnabled reports whether fbsan is active on this manager.
func (m *Manager) SanitizerEnabled() bool { return m.san != nil }

// Stats returns a copy of the sanitizer counters.
func (s *Sanitizer) Stats() SanitizerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Violation reports a protocol violation: the OnViolation handler if
// set, otherwise panic — a sanitizer hit is a caller bug, not an error
// the protocol can recover from.
func (s *Sanitizer) Violation(format string, args ...interface{}) {
	s.mu.Lock()
	s.stats.Violations++
	s.mu.Unlock()
	s.dispatch(fmt.Sprintf(format, args...))
}

// dispatch delivers an already-counted violation message.
func (s *Sanitizer) dispatch(msg string) {
	if s.OnViolation != nil {
		s.OnViolation(msg)
		return
	}
	panic("fbsan: " + msg)
}

// canaryByte is the poison pattern: position-dependent so shifted or
// partially-overwritten data never verifies by accident.
func canaryByte(page, i int) byte {
	return 0xFB ^ byte(page*31) ^ byte(i*7)
}

// poisonFree canary-fills the populated pages of an fbuf entering a free
// list, saving the previous contents for restoration at reuse.
func (s *Sanitizer) poisonFree(f *Fbuf) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.poisoned[f]) > 0 {
		return // already poisoned (defensive; recycle verifies first)
	}
	var recs []poisonPage
	for page, fn := range f.frames {
		if fn == mem.NoFrame {
			continue
		}
		data := s.mgr.Sys.Mem.Frame(fn).Data
		saved := append([]byte(nil), data...)
		for i := range data {
			data[i] = canaryByte(page, i)
		}
		recs = append(recs, poisonPage{page: page, frame: fn, saved: saved})
		s.stats.PoisonedPages++
	}
	if len(recs) > 0 {
		s.poisoned[f] = recs
	}
}

// verifyReuse checks the canaries of a previously poisoned fbuf and
// restores the saved contents, keeping simulated behavior identical.
// Pages whose backing frame changed since poisoning (reclaimed, then
// possibly lazily refilled) are skipped: their contents were legitimately
// discarded.
func (s *Sanitizer) verifyReuse(f *Fbuf) {
	s.mu.Lock()
	recs, ok := s.poisoned[f]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.poisoned, f)
	var msgs []string
	for _, rec := range recs {
		if rec.page >= len(f.frames) || f.frames[rec.page] != rec.frame {
			s.stats.SkippedPages++
			continue
		}
		data := s.mgr.Sys.Mem.Frame(rec.frame).Data
		s.stats.VerifiedPages++
		for i := range data {
			if data[i] != canaryByte(rec.page, i) {
				s.stats.Violations++
				msgs = append(msgs, fmt.Sprintf("use-after-free write to fbuf %#x page %d offset %d (canary %#x, found %#x): the buffer was modified while on the free list",
					uint64(f.Base), rec.page, i, canaryByte(rec.page, i), data[i]))
				break
			}
		}
		copy(data, rec.saved)
	}
	s.mu.Unlock()
	// Dispatch after dropping mu: the handler may call back into the
	// sanitizer (Stats, another check) and must not deadlock.
	for _, msg := range msgs {
		s.dispatch(msg)
	}
}

// frameReclaimed drops the poison record of one page whose frame the
// reclaimer is discarding, so a later reuse of the same frame number
// cannot be mistaken for a use-after-free. The saved bytes are restored
// first: the frame is about to return to the allocator pool, and leaving
// canaries in it would let a frame whose Zeroed flag is still set hand
// poison to the next allocation — visibly diverging from a run without
// the sanitizer.
func (s *Sanitizer) frameReclaimed(f *Fbuf, page int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.poisoned[f]
	for i, rec := range recs {
		if rec.page == page {
			if page < len(f.frames) && f.frames[page] == rec.frame {
				copy(s.mgr.Sys.Mem.Frame(rec.frame).Data, rec.saved)
			}
			s.poisoned[f] = append(recs[:i], recs[i+1:]...)
			s.stats.SkippedPages++
			return
		}
	}
}

// checkDMA validates a DMA operation against the fbuf lifecycle. DMA
// bypasses the simulated MMU, so these are exactly the accesses no
// protection fault will ever catch.
func (s *Sanitizer) checkDMA(f *Fbuf, write bool) {
	s.mu.Lock()
	s.stats.DMAChecks++
	s.mu.Unlock()
	op := "read"
	if write {
		op = "write"
	}
	if st := f.loadState(); st != StateLive {
		s.Violation("DMA %s to %s fbuf %#x: devices must only touch live buffers", op, st, uint64(f.Base))
		return
	}
	if write && f.isSecured() {
		s.Violation("DMA write to secured fbuf %#x: the buffer is immutable; reprogramming the device after Secure is a driver bug", uint64(f.Base))
	}
}

// audit is the shadow write-permission check plus a canary sweep of every
// free-listed fbuf, run from Manager.CheckInvariants when fbsan is on.
// Like CheckInvariants itself it requires quiescence: no in-flight data-
// plane operations while the sweep walks chunks and PTEs.
func (s *Sanitizer) audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.mgr
	s.stats.ShadowAudits++
	for i := range m.chunks {
		c := m.chunks[i].Load()
		if c == nil {
			continue
		}
		for _, f := range c.fbufs {
			for pg := 0; pg < f.Pages; pg++ {
				va := f.Base + vm.VA(pg*machine.PageSize)
				for _, d := range m.attached {
					if d == nil || d.Dead() {
						continue
					}
					pte, ok := d.AS.Lookup(va)
					if !ok || pte.Prot&vm.ProtWrite == 0 {
						continue
					}
					if d != f.Originator {
						return fmt.Errorf("fbsan: shadow audit: domain %s holds a writable PTE over fbuf %#x page %d it did not originate",
							d.Name, uint64(f.Base), pg)
					}
					if f.isSecured() {
						return fmt.Errorf("fbsan: shadow audit: originator %s still writable over secured fbuf %#x page %d",
							d.Name, uint64(f.Base), pg)
					}
				}
			}
		}
	}
	for f, recs := range s.poisoned {
		for _, rec := range recs {
			if rec.page >= len(f.frames) || f.frames[rec.page] != rec.frame {
				continue
			}
			data := m.Sys.Mem.Frame(rec.frame).Data
			for i := range data {
				if data[i] != canaryByte(rec.page, i) {
					return fmt.Errorf("fbsan: free fbuf %#x page %d modified on the free list (offset %d)",
						uint64(f.Base), rec.page, i)
				}
			}
		}
	}
	return nil
}
