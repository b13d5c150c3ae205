package conformance

// LifecycleRule is one paper rule about the fbuf lifecycle that the
// executable reference model in this package enforces dynamically. The
// catalogue exists so the static analyzer suite and the differential
// oracle cannot drift apart silently: internal/analysis's cross-check
// test asserts every rule here either appears in the fbuflife typestate
// tables (by Name) or carries a documented StaticExclusion explaining why
// compile-time checking is the wrong tool for it.
type LifecycleRule struct {
	// Name is the stable rule identifier, shared verbatim with the Rule
	// tags in internal/analysis/typestate.go.
	Name string
	// Paper is the section of Druschel & Peterson (SOSP 1993) the rule
	// comes from.
	Paper string
	// Desc states the rule in one sentence.
	Desc string
	// StaticExclusion, when non-empty, documents why the fbuflife
	// typestate automaton does not encode this rule — it names the
	// mechanism that owns it instead (the differential model or the chaos
	// sanitizer). Empty means the rule must be present in
	// analysis.StaticLifecycleRules().
	StaticExclusion string
}

// LifecycleRules returns the model's lifecycle-rule catalogue. Order is
// stable (documentation order, roughly by paper section).
func LifecycleRules() []LifecycleRule {
	return []LifecycleRule{
		// --- statically checked: these names appear in the fbuflife
		// typestate tables, edge for edge.
		{
			Name:  "alloc-live",
			Paper: "3.2.1",
			Desc:  "allocation hands out a live, writable fbuf; every allocation creates a Free/Transfer obligation",
		},
		{
			Name:  "write-originator-only",
			Paper: "2.1",
			Desc:  "only the originator writes, and only before the fbuf is transferred",
		},
		{
			Name:  "eager-secure-on-transfer",
			Paper: "2.1.3",
			Desc:  "transfer of a non-volatile fbuf revokes the originator's write permission eagerly",
		},
		{
			Name:  "transfer-requires-live",
			Paper: "2.1.3",
			Desc:  "only a live reference can be transferred; copy semantics keep the sender's reference alive, so multicast re-transfer is legal",
		},
		{
			Name:  "transfer-requires-holder",
			Paper: "2.1.3",
			Desc:  "a domain passes an fbuf onward only through an explicit transfer point (no implicit ownership handoff)",
		},
		{
			Name:  "secure-raises-protection",
			Paper: "3.2.4",
			Desc:  "Secure raises protection on a volatile fbuf at a receiver's request; the buffer is read-only to it afterwards",
		},
		{
			Name:  "immutable-after-transfer",
			Paper: "2.1.2",
			Desc:  "a transferred fbuf is immutable: the sender's later writes are protection faults",
		},
		{
			Name:  "free-requires-live",
			Paper: "3.2.1",
			Desc:  "Free drops one domain's live reference; using that reference afterwards is an error",
		},
		{
			Name:  "no-double-free",
			Paper: "3.2.1",
			Desc:  "one reference, one Free: a domain must not drop the same reference twice",
		},
		{
			Name:  "secure-volatile-before-read",
			Paper: "3.2.4",
			Desc:  "a receiver on a volatile path must Secure before trusting the data it reads",
		},

		// --- dynamic-only: the model (or another mechanism) owns these.
		{
			Name:            "lifo-reuse",
			Paper:           "3.2.1",
			Desc:            "the per-path free list is LIFO to improve locality (FIFO when the path opts out)",
			StaticExclusion: "allocation-order prediction needs the concrete free-list history; only the differential model can replay it",
		},
		{
			Name:            "quota-admission",
			Paper:           "3.2.1",
			Desc:            "a path may not carve a new chunk beyond its chunk quota",
			StaticExclusion: "admission depends on runtime allocation counts; a compile-time may-analysis has no bound on them",
		},
		{
			Name:            "region-capacity",
			Paper:           "3.2",
			Desc:            "allocation fails once the shared region has no free chunks",
			StaticExclusion: "capacity exhaustion is a dynamic resource condition, not a control-flow property",
		},
		{
			Name:            "dealloc-notice",
			Paper:           "3.2.1",
			Desc:            "a receiver's Free queues a deallocation notice that rides the next RPC to the owner (piggybacked)",
			StaticExclusion: "notice delivery is asynchronous protocol behaviour; the model tracks the queues exactly",
		},
		{
			Name:            "notice-overflow-explicit",
			Paper:           "3.2.1",
			Desc:            "when the pending-notice queue overflows its threshold, notices are sent explicitly",
			StaticExclusion: "the overflow threshold is a runtime counter; statically every queue length is possible",
		},
		{
			Name:            "reclaim-discards",
			Paper:           "3.2.1",
			Desc:            "reclaiming cached fbufs discards contents, oldest-freed first; a later touch reads back zeros",
			StaticExclusion: "which frames are resident depends on global memory pressure; the model predicts it frame by frame",
		},
		{
			Name:            "crash-reclaim",
			Paper:           "3.3",
			Desc:            "domain termination sweeps every reference the dead domain holds and unwires its mappings",
			StaticExclusion: "domain death is an external event with no compile-time marker",
		},
		{
			Name:            "path-close-drain",
			Paper:           "3.2.1",
			Desc:            "a closed path admits no new allocations and drains in-flight fbufs before its chunks return",
			StaticExclusion: "close/drain interleaves with in-flight transfers; the interleaving explorer owns it",
		},
		{
			Name:            "read-empty-leaf",
			Paper:           "3.2.4",
			Desc:            "reads of never-written pages inside the region hit the shared empty-leaf page and never fault",
			StaticExclusion: "per-page presence is MMU state; reads are deliberately legal from every typestate (see typestate.go)",
		},
	}
}
