// Package idem implements Encore's idempotence analysis (paper §3.1): the
// path-insensitive computation of Reachable Store (RS), Guarded Address
// (GA), and Exposed Address (EA) sets over SEME regions, the Equation-4
// idempotence check, hierarchical loop summaries (§3.1.2), and the
// profile-guided Pmin pruning of dynamically-dead blocks (§3.4.1).
//
// Set semantics (following the paper's definitions):
//
//   - RS(bb): stores that could execute at or after control passes
//     through bb (Equation 1; includes bb's own stores).
//   - GA(bb): addresses guaranteed to be overwritten on every path from
//     the region entry to bb (Equation 2, computed over predecessors
//     during the reversed-graph traversal).
//   - EA(bb): addresses that may be referenced by an unguarded load at or
//     before bb (Equation 3).
//
// A region is inherently idempotent iff EA(bb) ∩ RS(bb) = ∅ for every
// block (Equation 4); the stores participating in non-empty intersections
// form the checkpoint set CP (§3.2).
package idem

import (
	"encore/internal/alias"
	"encore/internal/cfg"
	"encore/internal/ir"
)

// Class is the three-way idempotence verdict of paper Figure 5.
type Class uint8

// Region classifications.
const (
	// Idempotent: no WAR hazard on any (unpruned) path; re-execution from
	// the header is safe with no memory checkpoints.
	Idempotent Class = iota
	// NonIdempotent: WAR hazards exist; the CP set lists the stores that
	// must be checkpointed to enable re-execution.
	NonIdempotent
	// Unknown: the region contains code the analysis cannot bound (opaque
	// calls, escaping frame addresses, irreducible control flow).
	Unknown
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Idempotent:
		return "idempotent"
	case NonIdempotent:
		return "non-idempotent"
	}
	return "unknown"
}

// StoreRef identifies one store that can violate idempotence.
type StoreRef struct {
	Pos alias.InstrPos
	Loc alias.Loc
	// FromCall marks stores performed inside a callee (summarized at the
	// call site). They cannot be checkpointed by instrumenting the store
	// itself; they are checkpointable at the call site only when their
	// location has a statically known base and offset.
	FromCall bool
}

// Checkpointable reports whether instrumentation can save the old value
// before this store executes. Direct stores always are — the checkpoint
// reuses the store's own address operand. Call-summarized stores need a
// statically materializable address.
func (s StoreRef) Checkpointable() bool {
	if !s.FromCall {
		return true
	}
	return s.Loc.OffKnown && (s.Loc.Kind == alias.KindGlobal || s.Loc.Kind == alias.KindFrame || s.Loc.Kind == alias.KindAbs)
}

// Result is the outcome of analyzing one region.
type Result struct {
	Class Class

	// CP is the checkpoint set: the stores whose targets must be saved to
	// make re-execution safe, deduplicated, in deterministic order.
	CP []StoreRef

	// Unprotectable is set when some violating store cannot be
	// checkpointed, leaving the region impossible to protect.
	Unprotectable bool

	// RS/GA/EA expose the per-block sets for inspection and golden tests.
	// RS maps each block to the violating-relevant store set reachable
	// from it; GA/EA are address sets. They are materialized from the
	// internal dense bitsets only when Env.KeepSets is set (region
	// formation leaves them nil to avoid per-block map churn).
	RS map[*ir.Block]map[alias.InstrPos]alias.Loc
	GA map[*ir.Block]alias.Set
	EA map[*ir.Block]alias.Set

	// PrunedBlocks counts blocks dropped by the Pmin filter.
	PrunedBlocks int
}

// Env carries the shared analysis context for a function.
type Env struct {
	Mode  alias.Mode
	MI    *alias.ModuleInfo
	Loops *cfg.LoopForest
	// Irreducible marks blocks on irreducible cycles (cfg.Canonicalize);
	// regions containing them are Unknown (paper footnote 3).
	Irreducible map[*ir.Block]bool

	// Freq gives profile execution counts; nil disables Pmin pruning
	// (the paper's Pmin = ∅ configuration).
	Freq func(b *ir.Block) int64
	// Pmin is the execution-probability threshold below which blocks are
	// pruned from the analysis, measured relative to the region (or loop)
	// header's execution count.
	Pmin float64

	// KeepSets materializes Result.RS/GA/EA on every AnalyzeRegion call.
	// Off by default: the per-block maps exist for inspection and golden
	// tests, not for region formation, and building them dominates the
	// analysis allocation profile.
	KeepSets bool

	loopSums map[*cfg.Loop]*loopSummary

	// Dense universe (dense.go): every location and store the function
	// can mention, interned once at NewEnv. The per-block effects cache
	// and the lazily-built may/must relation rows are shared read-only by
	// all regions analyzed under this Env.
	locs     []alias.Loc
	locID    map[alias.Loc]int32
	stores   []StoreRef
	storeID  map[StoreRef]int32
	storeLoc []int32 // store ID -> location ID
	lw, sw   int     // bitset widths in words (locations / stores)
	may      []bits  // location ID -> may-alias row (lazy)
	must     []bits  // location ID -> must-alias row (lazy)
	fx       []blockFX

	// Bump arena for transient per-region bitsets, reset at every
	// AnalyzeRegion entry and reused across regions.
	arena    []uint64
	arenaOff int
}

// NewEnv builds an analysis environment for one function of a module. The
// module info mi must be fully built (including AttachObservations for the
// Profiled mode) before the first NewEnv: environments treat it as
// read-only, which is what makes per-function analysis fan-out safe.
func NewEnv(f *ir.Func, mi *alias.ModuleInfo, mode alias.Mode) *Env {
	dom := cfg.Dominators(f)
	e := &Env{
		Mode:        mode,
		MI:          mi,
		Loops:       cfg.FindLoops(f, dom),
		Irreducible: cfg.Canonicalize(f, dom),
		loopSums:    map[*cfg.Loop]*loopSummary{},
		locID:       map[alias.Loc]int32{},
		storeID:     map[StoreRef]int32{},
	}
	e.buildEffects(f)
	return e
}

// WithProfile enables Pmin pruning using the given block frequencies.
func (e *Env) WithProfile(freq func(b *ir.Block) int64, pmin float64) *Env {
	e.Freq = freq
	e.Pmin = pmin
	e.loopSums = map[*cfg.Loop]*loopSummary{} // summaries depend on pruning
	return e
}

// pruned reports whether block b should be ignored relative to header h
// (paper §3.4.1). The header itself is never pruned.
func (e *Env) pruned(b, h *ir.Block) bool {
	if e.Freq == nil || b == h {
		return false
	}
	hf := e.Freq(h)
	if hf <= 0 {
		return false // unexecuted region: no basis for pruning
	}
	p := float64(e.Freq(b)) / float64(hf)
	if p > 1 {
		p = 1
	}
	return p < e.Pmin || (e.Pmin == 0 && e.Freq(b) == 0)
}
