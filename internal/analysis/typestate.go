package analysis

// The fbuf lifecycle as a typestate automaton. The states and transitions
// mirror the executable reference model in internal/conformance — the
// cross-check test there (crosscheck_test.go) asserts every lifecycle
// rule of the model either appears in this table's Rule column or carries
// a documented exclusion, so the static and dynamic oracles cannot drift
// apart silently.
//
// The automaton is deliberately small: states are what the *holder of a
// reference* may assume about an fbuf, not the buffer's global MMU state.
// Transfer uses copy semantics (paper §2.1.3): the sender keeps its
// reference and must still Free it, so Transferred is a live state from
// which Free and further Transfers (multicast) are legal — only writes
// are revoked (§2.1.2 immutability). A volatile path leaves write
// permission with the originator (§3.2.4), so the engine adds Unsecured
// beside Transferred when it transfers a value allocated on a statically
// volatile path; Secure or a Secured() check clears it.

// LifeState is one typestate of a tracked fbuf value. States are bits so
// the may-analysis can hold a set per value and the tables below can
// name several source states at once.
type LifeState uint8

const (
	LSAllocated   LifeState = 1 << iota // allocated, not yet written
	LSWritten                           // originator data written
	LSTransferred                       // sent to another domain; immutable
	LSUnsecured                         // received on a volatile path, unsecured
	LSSecured                           // protection raised by a receiver
	LSFreed                             // reference dropped
)

func (s LifeState) String() string {
	switch s {
	case LSAllocated:
		return "allocated"
	case LSWritten:
		return "written"
	case LSTransferred:
		return "transferred"
	case LSUnsecured:
		return "unsecured"
	case LSSecured:
		return "secured"
	case LSFreed:
		return "freed"
	}
	return "?"
}

// LifeEvent is an operation applied to a tracked value.
type LifeEvent uint8

const (
	EvAlloc LifeEvent = iota
	EvWrite
	EvRead
	EvTransfer
	EvSecure
	EvFree
	EvHandoff // value passed into a go statement
	EvAck     // Secured() check: the holder acknowledges volatility
)

func (e LifeEvent) String() string {
	switch e {
	case EvAlloc:
		return "Alloc"
	case EvWrite:
		return "Write"
	case EvRead:
		return "Read"
	case EvTransfer:
		return "Transfer"
	case EvSecure:
		return "Secure"
	case EvFree:
		return "Free"
	case EvHandoff:
		return "goroutine handoff"
	case EvAck:
		return "Secured check"
	}
	return "?"
}

// LifeTransition is one legal edge of the automaton.
type LifeTransition struct {
	From  LifeState // bitmask of admissible source states
	Event LifeEvent
	To    LifeState
	// Rule names the conformance-model lifecycle rule this edge encodes
	// (see conformance.LifecycleRules), Paper the section it comes from.
	Rule  string
	Paper string
}

// LifeViolation is one forbidden (state, event) pair the analyzer reports.
type LifeViolation struct {
	From  LifeState // bitmask of states in which Event is an error
	Event LifeEvent
	// Name is the diagnostic category suffix; Rule/Paper as above.
	Name  string
	Rule  string
	Paper string
}

// LifecycleTransitions is the legal-edge table.
var LifecycleTransitions = []LifeTransition{
	{LSFreed, EvAlloc, LSAllocated, "alloc-live", "3.2.1"},
	{LSAllocated | LSWritten, EvWrite, LSWritten, "write-originator-only", "2.1"},
	{LSAllocated | LSWritten, EvTransfer, LSTransferred, "eager-secure-on-transfer", "2.1.3"},
	// Copy semantics: the sender's reference stays live, so multicast
	// re-transfer and transfer of a secured buffer are both legal.
	// Unsecured has no Transfer edge: a re-transfer leaves it unsecured.
	{LSTransferred | LSSecured, EvTransfer, LSTransferred, "transfer-requires-live", "2.1.3"},
	{LSAllocated | LSWritten | LSTransferred | LSUnsecured | LSSecured, EvSecure, LSSecured, "secure-raises-protection", "3.2.4"},
	// A Secured() check acknowledges volatility but raises no protection,
	// so the value leaves Unsecured for plain Transferred, not Secured.
	{LSUnsecured, EvAck, LSTransferred, "secure-volatile-before-read", "3.2.4"},
	{LSAllocated | LSWritten | LSTransferred | LSSecured, EvFree, LSFreed, "free-requires-live", "3.2.1"},
	// Reads never change state; they are legal from every live state but
	// Unsecured (for a reader other than the originator) and, deliberately,
	// from Freed too: cached mappings persist after Free (that's the point
	// of caching), so a read-after-free is a data staleness hazard the
	// dynamic sanitizer owns, not a protection fault the static checker
	// can call a bug.
	{^LifeState(0), EvRead, 0, "", ""},
}

// LifecycleViolations is the forbidden-edge table; any (state, event)
// pair in neither table is unknown and the analyzer keeps the state
// unchanged without reporting (may-analysis: stay silent when unsure).
var LifecycleViolations = []LifeViolation{
	{LSTransferred, EvWrite, "use-after-transfer", "immutable-after-transfer", "2.1.2"},
	{LSSecured, EvWrite, "write-after-secure", "secure-raises-protection", "3.2.4"},
	{LSFreed, EvWrite, "use-after-free", "free-requires-live", "3.2.1"},
	{LSFreed, EvTransfer, "use-after-free", "transfer-requires-live", "2.1.3"},
	{LSFreed, EvSecure, "use-after-free", "secure-raises-protection", "3.2.4"},
	{LSFreed, EvFree, "double-free", "no-double-free", "3.2.1"},
	// A receiver's read while the originator may still write: the engine
	// excuses the originator's own reads and reads by an unknown domain.
	{LSUnsecured, EvRead, "unsecured-volatile-read", "secure-volatile-before-read", "3.2.4"},
	// Handing an fbuf the current domain still owns straight into a
	// goroutine is an undocumented ownership handoff: the receiver has no
	// transfer point to synchronize on (§2.1.3's explicit transfer
	// requirement). Transferred/Secured/Freed values may cross freely.
	{LSAllocated | LSWritten, EvHandoff, "goroutine-handoff", "transfer-requires-holder", "2.1.3"},
}

// lifeNext returns the post-state set for applying ev to state set in,
// plus the violation matched (nil when none). Unknown combinations pass
// through unchanged.
func lifeNext(in LifeState, ev LifeEvent) (LifeState, *LifeViolation) {
	var out LifeState
	var viol *LifeViolation
	for i := range LifecycleViolations {
		v := &LifecycleViolations[i]
		if v.Event == ev && in&v.From != 0 {
			viol = v
			break
		}
	}
	for i := range LifecycleTransitions {
		tr := &LifecycleTransitions[i]
		if tr.Event != ev {
			continue
		}
		if src := in & tr.From; src != 0 {
			if tr.To == 0 {
				out |= src // read: state-preserving
			} else {
				out |= tr.To
			}
			in &^= src
		}
	}
	// States with no edge for ev (including violating ones) stay put: a
	// may-analysis must not lose track of a value just because one path
	// misused it.
	out |= in
	return out, viol
}

// StaticLifecycleRules returns the set of conformance rule names the
// typestate tables encode, for the cross-check test.
func StaticLifecycleRules() map[string]bool {
	rules := map[string]bool{}
	for _, tr := range LifecycleTransitions {
		if tr.Rule != "" {
			rules[tr.Rule] = true
		}
	}
	for _, v := range LifecycleViolations {
		rules[v.Rule] = true
	}
	return rules
}
