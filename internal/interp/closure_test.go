package interp

import (
	"errors"
	"strings"
	"testing"

	"encore/internal/ir"
	"encore/internal/obs"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineFast, true},
		{"fast", EngineFast, true},
		{"ref", EngineRef, true},
		{"reference", EngineRef, true},
		{"closure", EngineFast, false},
		{"Fast", EngineFast, false},
		{"jit", EngineFast, false},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseEngine(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok && !strings.Contains(err.Error(), "valid: fast, ref)") {
			t.Errorf("ParseEngine(%q): error %q does not list the valid engines", c.in, err)
		}
		if c.ok && got != c.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, e := range []Engine{EngineFast, EngineRef} {
		back, err := ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("round trip %v: got %v, %v", e, back, err)
		}
	}
}

// TestClosureFaultTrajectory runs the manually instrumented checkpoint
// region under the default (closure-compiled) engine with an injected
// fault: the compiled segment must pause before the injection window,
// the reference loop must roll back, and control must return to the
// closure engine to finish — with a fault report and counters identical
// to a run pinned to the reference loop.
func TestClosureFaultTrajectory(t *testing.T) {
	mod, _, metas := buildCkptFunc()
	run := func(e Engine) (*Machine, int64) {
		mach := New(mod, Config{Engine: e})
		mach.SetRuntime(metas)
		mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 7, Bit: 3, DetectLatency: 0})
		got, err := mach.Run()
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return mach, got
	}
	ref, rGot := run(EngineRef)
	clos, cGot := run(EngineFast)
	if cGot != 1998 || rGot != cGot {
		t.Errorf("recovered run: closure=%d ref=%d, want 1998", cGot, rGot)
	}
	rr, cr := ref.FaultReport(), clos.FaultReport()
	if rr != cr {
		t.Errorf("fault reports diverge:\n ref:     %+v\n closure: %+v", rr, cr)
	}
	if !cr.Injected || !cr.Detected || !cr.RolledBack || !cr.SameInstance {
		t.Errorf("closure fault handling incomplete: %+v", cr)
	}
	if ref.Count != clos.Count || ref.BaseCount != clos.BaseCount {
		t.Errorf("counters: ref=(%d,%d) closure=(%d,%d)",
			ref.Count, ref.BaseCount, clos.Count, clos.BaseCount)
	}
	if clos.HandoffsToRef == 0 || clos.HandoffsToFast == 0 {
		t.Errorf("closure run never handed off: toRef=%d toFast=%d",
			clos.HandoffsToRef, clos.HandoffsToFast)
	}
}

// TestClosureBudgetTrap: budget exhaustion inside a compiled segment
// must delegate to the reference loop and surface the identical ErrBudget
// trap at the identical count.
func TestClosureBudgetTrap(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule("t")
		f := m.NewFunc("main", 0)
		b := f.NewBlock("entry")
		c := f.NewReg()
		b.Const(c, 1)
		b.Jmp(b) // endless self-loop
		f.Recompute()
		return m
	}
	ref := New(build(), Config{MaxInstrs: 1000, Engine: EngineRef})
	_, rErr := ref.Run()
	clos := New(build(), Config{MaxInstrs: 1000})
	_, cErr := clos.Run()
	if !errors.Is(rErr, ErrBudget) || !errors.Is(cErr, ErrBudget) {
		t.Fatalf("want ErrBudget from both: ref=%v closure=%v", rErr, cErr)
	}
	if ref.Count != clos.Count {
		t.Errorf("trap counts diverge: ref=%d closure=%d", ref.Count, clos.Count)
	}
}

// TestAttachObsSkipsPriorWork: counters a machine accumulated before
// AttachObs belong to no registry. A pooled machine that ran unobserved
// must report only the work it does after attaching — nothing at the
// next Reset, exactly one run's worth after the next Run.
func TestAttachObsSkipsPriorWork(t *testing.T) {
	mod, _, metas := buildCkptFunc()
	m := New(mod, Config{})
	m.SetRuntime(metas)
	m.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 7, Bit: 3})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	run := m.Count
	if run == 0 || m.HandoffsToRef == 0 {
		t.Fatalf("unobserved run did no work: count %d, handoffs %d", run, m.HandoffsToRef)
	}
	reg := obs.NewRegistry()
	m.AttachObs(reg)
	m.Reset()
	for _, name := range []string{"interp.instrs.total", "interp.instrs.base",
		"interp.ckpt.reg_bytes", "interp.region.entries", "interp.handoff.to_ref"} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d after attach+Reset, want 0 (pre-attach work leaked)", name, v)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if v := reg.Counter("interp.instrs.total").Value(); v != m.Count {
		t.Errorf("interp.instrs.total = %d after one observed run, want %d", v, m.Count)
	}
}

// TestClosureOOBTrap: a plain out-of-bounds access traps from a compiled
// step with exact counters.
func TestClosureOOBTrap(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	a, v := f.NewReg(), f.NewReg()
	b.Const(a, -5)
	b.Load(v, a, 0)
	b.Ret(v)
	f.Recompute()
	mach := New(m, Config{})
	if _, err := mach.Run(); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("want ErrOutOfBounds, got %v", err)
	}
	if mach.Count != 2 {
		t.Errorf("Count = %d, want 2 (const + faulting load)", mach.Count)
	}
}

// TestClosureResetRerun: a default-engine machine must Reset and rerun
// (the SFI pool's usage pattern), reusing the shared compiled program.
func TestClosureResetRerun(t *testing.T) {
	mod, _, metas := buildCkptFunc()
	prog := Predecode(mod)
	mach := New(mod, Config{})
	mach.UseProgram(prog)
	mach.SetRuntime(metas)
	var first int64
	for i := 0; i < 3; i++ {
		got, err := mach.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("run %d = %d, want %d", i, got, first)
		}
		mach.Reset()
	}
}
