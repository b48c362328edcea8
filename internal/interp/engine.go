package interp

import "fmt"

// Engine selects which dispatch loop a machine uses for the quiescent
// (hook-free, fault-free) phases of a run. Both engines are
// observationally equivalent — same return values, counters, checkpoint
// traffic, profiles, and fault trajectories — and differ only in speed;
// the equivalence guard tests and the progen FuzzEngines oracle pin that
// down. The active phase of a fault (injection through detection) always
// runs on the reference loop regardless of the selected engine, and a
// Hook forces the reference loop outright (hooks observe every
// instruction).
type Engine uint8

// Engines.
const (
	// EngineFast is the closure-compiled engine (closure.go) — the
	// default: the pre-decoded module is AOT-compiled into threaded-code
	// closures, one per instruction, linked by direct continuation calls
	// with block-batched instruction accounting.
	EngineFast Engine = iota
	// EngineRef is the reference loop (ref.go): it walks the ir structures
	// directly and carries the full observation machinery.
	EngineRef
)

// String names the engine the way the -engine command flags spell it.
func (e Engine) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineRef:
		return "ref"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine maps a -engine flag value to an Engine. It is the shared
// validation helper behind the encore, encore-sfi, encore-bench, and
// encore-serve flags (the sfi.ClampWorkers convention: one exported
// normalizer, every consumer degrades through it). The empty string
// selects the default fast engine; "reference" is accepted as an alias
// for "ref".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "fast":
		return EngineFast, nil
	case "ref", "reference":
		return EngineRef, nil
	}
	return EngineFast, fmt.Errorf("unknown engine %q (valid: fast, ref)", s)
}
