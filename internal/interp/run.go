package interp

import (
	"math"

	"encore/internal/ir"
)

// Run executes the module's main function with no arguments.
func (m *Machine) Run() (int64, error) {
	main := m.Mod.FuncByName("main")
	if main == nil {
		return 0, ErrNoMain
	}
	return m.Call(main)
}

// Call executes fn with the given arguments and returns its result.
//
// Dispatch is split across two engines (engine.go). The reference loop
// (ref.go) walks the ir structures directly and carries the full
// observation machinery; it runs the whole call under a Hook or
// EngineRef, takes over for the active phase of a fault and for the
// segment leading up to any other stop event, and doubles as the
// semantic oracle for the equivalence tests. Everything else runs on the
// closure-compiled default engine (closure.go).
func (m *Machine) Call(fn *ir.Func, args ...int64) (int64, error) {
	if err := m.pushFrame(fn, args); err != nil {
		return 0, err
	}
	pc, ok := m.program().entry[fn]
	if !ok {
		m.popFrame()
		return 0, m.trap(ErrNoMain, "function %s has no body", fn.Name)
	}
	return m.enter(len(m.frames)-1, pc)
}

// enter is the one way into the engines, for Call, Resume and the
// capture passes: it runs from pc until the frame stack drains back past
// baseDepth. Under a Hook (hooks observe every instruction) or EngineRef
// the whole run stays on the reference loop, except a capture pass,
// which needs the default engine's hand-backs to freeze its rungs; a run
// that resumes mid-fault starts there until the fault settles. Anything
// else starts on the default engine, which pauses just before an armed
// fault's injection window opens and hands the active phase of the
// fault (injection through detection) to the reference loop.
func (m *Machine) enter(baseDepth int, pc int32) (int64, error) {
	switch {
	case m.Cfg.Hook != nil || m.Cfg.Engine == EngineRef && m.capt == nil:
		return m.loopRefFrom(baseDepth, pc, math.MaxInt64)
	case m.fault != nil && m.fault.injected && !m.fault.detected:
		return m.loopRefFrom(baseDepth, pc, 0)
	}
	return m.loopClosureFrom(baseDepth, pc)
}

// newFrame pushes an activation record for fn, reusing the register slice
// of a previously popped frame slot when possible (the interpreter's
// dominant allocation source). Reused registers are zeroed to preserve
// fresh-frame semantics.
func (m *Machine) newFrame(fn *ir.Func) (*frame, error) {
	if len(m.frames) >= m.Cfg.MaxDepth {
		return nil, m.trap(ErrCallDepth, "calling %s", fn.Name)
	}
	if m.sp+fn.FrameSize > m.stackTop {
		return nil, m.trap(ErrStack, "frame for %s needs %d words", fn.Name, fn.FrameSize)
	}
	var fr *frame
	if len(m.frames) < cap(m.frames) {
		m.frames = m.frames[:len(m.frames)+1]
		fr = &m.frames[len(m.frames)-1]
		if cap(fr.regs) >= fn.NumRegs {
			fr.regs = fr.regs[:fn.NumRegs]
			clear(fr.regs)
		} else {
			fr.regs = make([]int64, fn.NumRegs)
		}
	} else {
		m.frames = append(m.frames, frame{regs: make([]int64, fn.NumRegs)})
		fr = &m.frames[len(m.frames)-1]
	}
	fr.fn = fn
	fr.fp = m.sp
	fr.region = nil
	fr.retPC, fr.retDst = 0, -1
	m.sp += fn.FrameSize
	return fr, nil
}

func (m *Machine) pushFrame(fn *ir.Func, args []int64) error {
	fr, err := m.newFrame(fn)
	if err != nil {
		return err
	}
	copy(fr.regs, args)
	return nil
}

func (m *Machine) popFrame() {
	fr := &m.frames[len(m.frames)-1]
	m.sp = fr.fp
	if fr.region != nil {
		m.freeRegion(fr.region)
		fr.region = nil
	}
	m.frames = m.frames[:len(m.frames)-1]
}

// allocRegion takes a checkpoint buffer from the machine's free list.
func (m *Machine) allocRegion() *regionState {
	if n := len(m.regionFree); n > 0 {
		rs := m.regionFree[n-1]
		m.regionFree = m.regionFree[:n-1]
		rs.entries = rs.entries[:0]
		rs.bytes = 0
		return rs
	}
	return &regionState{}
}

func (m *Machine) freeRegion(rs *regionState) {
	rs.meta = nil
	m.regionFree = append(m.regionFree, rs)
}

// fastStop computes where the default engine must stop dispatching and
// hand the run to the reference loop: the instruction budget, tightened
// to the next pending fault event (before injection that is InjectAt-1,
// covering both the between-instruction register-file strike at
// InjectAt and the post-instruction output corruption of the first
// instruction retiring at InjectAt; after injection it is the scheduled
// detection point — a settled fault has no pending events), and
// tightened again to the next checkpoint-capture rung when a capture
// pass (RunWithSnapshots, RunLadder) is active and to the next
// reconvergence stop once an armed trial's fault has settled
// (ArmReconverge).
func (m *Machine) fastStop() int64 {
	stop := m.Cfg.MaxInstrs
	if m.fault != nil {
		switch {
		case !m.fault.injected:
			if ia := m.fault.plan.InjectAt - 1; ia < stop {
				stop = ia
			}
		case !m.fault.detected:
			if da := m.fault.detectAt; da < stop {
				stop = da
			}
		}
	}
	if m.capt != nil && m.capt.next < stop {
		stop = m.capt.next
	}
	if r := &m.reconv; r.settled && r.next < len(r.lad.snaps) {
		if rs := r.lad.snaps[r.next].count + r.delta; rs < stop {
			stop = rs
		}
	}
	return stop
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// externFunc implements a statically-opaque library call.
type externFunc func(m *Machine, args []int64) int64

// builtinExterns are the only externs a program can call; any other name
// traps with ErrExtern. "emit" appends its argument to the machine's
// output stream; "mix" is an opaque value combiner used by workloads to
// force statically-unanalyzable data flow. Neither touches memory, the
// counters or the frame stack, so the default engine calls them mid-block
// with no state sync.
var builtinExterns = map[string]externFunc{
	"emit": func(m *Machine, args []int64) int64 {
		if len(args) > 0 {
			m.output = append(m.output, args[0])
			return args[0]
		}
		return 0
	},
	"mix": func(m *Machine, args []int64) int64 {
		h := uint64(14695981039346656037)
		for _, a := range args {
			h ^= uint64(a)
			h *= 1099511628211
		}
		return int64(h)
	},
}
