// Package alias implements the static memory alias analysis that Encore's
// idempotence analysis consumes (paper §3.1: "the set subtraction operation
// ... is supplied with standard, conservative, static memory alias analysis
// techniques").
//
// Memory references are abstracted to Locs: a base (global, frame slot,
// pointer parameter, absolute constant, or unknown) plus an optional
// constant offset. A flow-sensitive, intra-procedural value-tracking pass
// assigns a Loc to every load and store; bottom-up call summaries expose
// callee side effects in caller terms.
//
// Two analysis modes reproduce the two bars of paper Figure 7a:
//
//   - Static: conservative may-alias (unknown aliases everything).
//   - Optimistic: may-alias collapses to must-alias, the approximate
//     lower bound "for future Encore designs that could utilize more
//     robust alias analysis frameworks".
package alias

import (
	"fmt"

	"encore/internal/ir"
)

// Mode selects the aggressiveness of may-alias queries.
type Mode uint8

// Analysis modes; see the package comment.
const (
	Static Mode = iota
	Optimistic
	// Profiled implements the paper's stated future work (§3.1,
	// footnote 2: "extending Encore to use more aggressive dynamic
	// memory profiling"): references carry the address ranges they were
	// observed to touch during the profiling run, and two references
	// may-alias only if their observed ranges overlap. Like Pmin pruning
	// this is statistical, not provable — an unprofiled path can touch
	// addresses outside the observed range.
	Profiled
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Optimistic:
		return "optimistic"
	case Profiled:
		return "profiled"
	}
	return "static"
}

// Range is the observed absolute-address footprint of one memory
// reference across a profiling run.
type Range struct {
	Min, Max int64
	Count    int64 // dynamic executions observed
}

// Overlaps reports whether two observed footprints intersect.
func (r *Range) Overlaps(o *Range) bool {
	return r.Min <= o.Max && o.Min <= r.Max
}

// BaseKind classifies the base of an abstract memory location.
type BaseKind uint8

// Location base kinds.
const (
	KindUnknown BaseKind = iota // statically untracked address
	KindGlobal                  // module global
	KindFrame                   // a slot in the enclosing function's frame
	KindParam                   // memory reached through pointer parameter Param
	KindAbs                     // absolute constant address
)

// Loc is an abstract memory location: base plus offset. Loc is comparable
// and used directly as a set element.
type Loc struct {
	Kind     BaseKind
	Global   *ir.Global // KindGlobal
	Fn       *ir.Func   // KindFrame: the frame's owner
	Param    int        // KindParam: parameter index
	Off      int64
	OffKnown bool

	// Obs, when non-nil, carries the reference's observed address
	// footprint from dynamic memory profiling (the Profiled mode).
	Obs *Range
}

// Unknown is the top location.
var Unknown = Loc{Kind: KindUnknown}

// String renders the location for diagnostics.
func (l Loc) String() string {
	switch l.Kind {
	case KindGlobal:
		return fmt.Sprintf("%s%s", l.Global.Name, offStr(l))
	case KindFrame:
		return fmt.Sprintf("frame(%s)%s", l.Fn.Name, offStr(l))
	case KindParam:
		return fmt.Sprintf("param%d%s", l.Param, offStr(l))
	case KindAbs:
		return fmt.Sprintf("abs[%d]", l.Off)
	}
	return "unknown"
}

func offStr(l Loc) string {
	if l.OffKnown {
		return fmt.Sprintf("+%d", l.Off)
	}
	return "+?"
}

// sameBase reports whether two locations share a base object.
func sameBase(a, b Loc) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindGlobal:
		return a.Global == b.Global
	case KindFrame:
		return a.Fn == b.Fn
	case KindParam:
		return a.Param == b.Param
	case KindAbs, KindUnknown:
		return true
	}
	return false
}

// MustAlias reports whether a and b certainly refer to the same word.
func MustAlias(a, b Loc) bool {
	if a.Kind == KindUnknown || b.Kind == KindUnknown {
		return false
	}
	return sameBase(a, b) && a.OffKnown && b.OffKnown && a.Off == b.Off
}

// MayAlias reports whether a and b can refer to the same word under the
// given mode. In Optimistic mode this degenerates to MustAlias, giving the
// lower-bound instrumentation cost of Figure 7a. In Profiled mode,
// references with observed footprints alias only when the footprints
// overlap; references the profiling run never executed fall back to the
// static answer.
func MayAlias(a, b Loc, mode Mode) bool {
	if mode == Optimistic {
		return MustAlias(a, b)
	}
	if mode == Profiled && a.Obs != nil && b.Obs != nil && !a.Obs.Overlaps(b.Obs) {
		// Observed footprints are disjoint: refine the static answer to
		// "no". Overlapping footprints never *create* aliasing the static
		// analysis disproves (distinct objects stay distinct).
		return false
	}
	if a.Kind == KindUnknown || b.Kind == KindUnknown {
		return true
	}
	// Distinct named bases cannot overlap; globals and frames are disjoint
	// address ranges; two different globals are disjoint; parameters may
	// point anywhere except (by our calling conventions) a callee frame.
	switch {
	case a.Kind == KindAbs || b.Kind == KindAbs:
		// A constant address could land anywhere.
		if a.Kind == KindAbs && b.Kind == KindAbs {
			return a.Off == b.Off
		}
		return true
	case a.Kind == KindParam || b.Kind == KindParam:
		if a.Kind == KindParam && b.Kind == KindParam {
			if a.Param != b.Param {
				return true // two pointer params may alias each other
			}
			return !a.OffKnown || !b.OffKnown || a.Off == b.Off
		}
		return true // param pointer vs global/frame: may point at it
	case !sameBase(a, b):
		return false
	default:
		return !a.OffKnown || !b.OffKnown || a.Off == b.Off
	}
}

// Set is a small set of locations. Sets are kept deduplicated under Loc
// equality (not alias equivalence).
type Set map[Loc]struct{}

// NewSet builds a set from locations.
func NewSet(ls ...Loc) Set {
	s := make(Set, len(ls))
	for _, l := range ls {
		s[l] = struct{}{}
	}
	return s
}

// Add inserts l.
func (s Set) Add(l Loc) { s[l] = struct{}{} }

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for l := range s {
		if _, ok := o[l]; !ok {
			return false
		}
	}
	return true
}

// MustCovers reports whether l is certainly overwritten given that every
// location in s is overwritten: true iff some element must-aliases l.
func (s Set) MustCovers(l Loc) bool {
	for a := range s {
		if MustAlias(a, l) {
			return true
		}
	}
	return false
}
