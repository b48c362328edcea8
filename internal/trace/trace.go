// Package trace implements the dynamic-trace idempotence study of paper
// Figure 1: how often is a window of N consecutive dynamic instructions
// inherently idempotent?
//
// A trace is inherently idempotent when re-executing it from its first
// instruction cannot diverge: no memory word is exposed-read (read while
// still holding its pre-trace value) and later overwritten within the
// trace — the dynamic analogue of the WAR-freedom criterion. Following
// §3.1, register state is ignored here (the static system checkpoints
// live-in registers separately).
package trace

import (
	"errors"
	"fmt"

	"encore/internal/interp"
	"encore/internal/ir"
)

// Event is one dynamic memory access.
type Event struct {
	Addr    int64
	IsStore bool
}

// Recorder captures the dynamic memory-access stream of a run, up to Cap
// events. It plugs into the interpreter as a Hook.
type Recorder struct {
	Events []Event
	Cap    int
	// Instrs counts dynamic instructions observed (memory or not), so
	// window lengths can be expressed in instructions rather than
	// accesses.
	Marks []int32 // Marks[i] = index into Events at instruction i... see Observe
	insts int

	// Scratch state for WindowIdempotent: epoch-stamped membership maps
	// reused across the thousands of sampled windows, so each window scan
	// allocates nothing. An address is in the current window's set iff its
	// stamp equals epoch.
	epoch      int
	scratchExp map[int64]int
	scratchWr  map[int64]int
}

// NewRecorder builds a recorder bounded to cap events.
func NewRecorder(cap int) *Recorder {
	return &Recorder{Cap: cap, Events: make([]Event, 0, cap)}
}

// OnInstr implements interp.Hook: it decodes the upcoming instruction and
// logs its memory effect. Window positions are tracked per dynamic
// instruction; non-memory instructions record a no-op mark.
func (r *Recorder) OnInstr(m *interp.Machine, b *ir.Block, idx int) {
	if len(r.Marks) >= r.Cap {
		return
	}
	if idx >= len(b.Instrs) {
		r.Marks = append(r.Marks, int32(len(r.Events)))
		return
	}
	in := &b.Instrs[idx]
	r.Marks = append(r.Marks, int32(len(r.Events)))
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		addr, ok := m.PeekAddr(in)
		if ok {
			r.Events = append(r.Events, Event{Addr: addr, IsStore: in.Op == ir.OpStore})
		}
	}
}

// Record runs the module's main function capturing up to cap dynamic
// instructions of memory trace. The run itself is bounded to the cap:
// once the recorder is full, executing the rest of the workload cannot
// change the trace, so the interpreter's budget stops it there.
func Record(mod *ir.Module, cap int) (*Recorder, error) {
	r := NewRecorder(cap)
	m := interp.New(mod, interp.Config{Hook: r, MaxInstrs: int64(cap)})
	defer m.Release()
	if _, err := m.Run(); err != nil && !(errors.Is(err, interp.ErrBudget) && len(r.Marks) >= cap) {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return r, nil
}

// WindowIdempotent reports whether the trace window covering dynamic
// instructions [start, start+length) is inherently idempotent: no address
// is stored after having been exposed-read within the window.
func (r *Recorder) WindowIdempotent(start, length int) bool {
	if start < 0 || start+length > len(r.Marks) {
		return false
	}
	lo := int(r.Marks[start])
	hi := len(r.Events)
	if start+length < len(r.Marks) {
		hi = int(r.Marks[start+length])
	}
	if r.scratchExp == nil {
		r.scratchExp = map[int64]int{}
		r.scratchWr = map[int64]int{}
	}
	r.epoch++
	ep, exposed, written := r.epoch, r.scratchExp, r.scratchWr
	for _, e := range r.Events[lo:hi] {
		if e.IsStore {
			if exposed[e.Addr] == ep {
				return false
			}
			written[e.Addr] = ep
		} else if written[e.Addr] != ep {
			exposed[e.Addr] = ep
		}
	}
	return true
}

// Fractions computes, for each window length, the fraction of sampled
// windows that are inherently idempotent. Windows are sampled at a fixed
// deterministic stride covering the whole recorded run.
func (r *Recorder) Fractions(lengths []int, samples int) map[int]float64 {
	return fractions(len(r.Marks), lengths, samples, r.WindowIdempotent)
}

// fractions computes, for each window length L, the fraction of windows
// [s, s+L) within a run of n instructions that satisfy ok, sampling
// starts s at a stride of (n−L)/samples (at least 1; samples <= 0
// selects 100). A length outside [1, n] scores 0.
func fractions(n int, lengths []int, samples int, ok func(start, length int) bool) map[int]float64 {
	if samples <= 0 {
		samples = 100
	}
	out := make(map[int]float64, len(lengths))
	for _, L := range lengths {
		if L <= 0 || L > n {
			out[L] = 0
			continue
		}
		stride := max((n-L)/samples, 1)
		tested, good := 0, 0
		for s := 0; s+L <= n; s += stride {
			tested++
			if ok(s, L) {
				good++
			}
		}
		out[L] = float64(good) / float64(tested)
	}
	return out
}

// TargetRecorder measures Figure 1's second curve — the "Idempotence
// Target": the fraction of dynamic windows that Encore's compiled output
// can actually recover. It observes an *instrumented* run, tracking which
// protected-region instance each dynamic instruction belongs to; a window
// is recoverable when it is inherently idempotent (the first curve's
// criterion) or lies entirely within a single protected region instance
// (rollback to that instance's header regenerates it).
type TargetRecorder struct {
	*Recorder
	// Instance[i] identifies the protected region instance active at
	// dynamic instruction i (0 = unprotected code).
	Instance []int64

	selectedInit map[*ir.Block]bool
	seq          int64
	cur          int64
}

// NewTargetRecorder builds a recorder for an instrumented module whose
// selected-region blocks are given by ownership.
func NewTargetRecorder(cap int, selected map[*ir.Block]bool) *TargetRecorder {
	return &TargetRecorder{Recorder: NewRecorder(cap), Instance: make([]int64, 0, cap), selectedInit: selected}
}

// OnInstr implements interp.Hook.
func (r *TargetRecorder) OnInstr(m *interp.Machine, b *ir.Block, idx int) {
	if len(r.Marks) >= r.Cap {
		return
	}
	if idx < len(b.Instrs) && b.Instrs[idx].Op == ir.OpSetRecovery && b.Instrs[idx].Imm >= 0 {
		r.seq++
		r.cur = r.seq
	} else if !r.selectedInit[b] {
		r.cur = 0 // left protected code (disarms land here: negative IDs)
	}
	r.Instance = append(r.Instance, r.cur)
	r.Recorder.OnInstr(m, b, idx)
}

// WindowRecoverable reports whether the window is idempotent or sits
// wholly inside one protected region instance.
func (r *TargetRecorder) WindowRecoverable(start, length int) bool {
	if r.WindowIdempotent(start, length) {
		return true
	}
	if start < 0 || start+length > len(r.Instance) {
		return false
	}
	first := r.Instance[start]
	if first == 0 {
		return false
	}
	for _, inst := range r.Instance[start : start+length] {
		if inst != first {
			return false
		}
	}
	return true
}

// TargetFractions computes the recoverable fraction per window length,
// sampled as Fractions samples.
func (r *TargetRecorder) TargetFractions(lengths []int, samples int) map[int]float64 {
	return fractions(len(r.Marks), lengths, samples, r.WindowRecoverable)
}
