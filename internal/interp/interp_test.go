package interp

import (
	"errors"
	"math"
	"testing"

	"encore/internal/ir"
)

// buildArith assembles a function computing a mix of operations and
// returning the result, exercising the ALU paths.
func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		name  string
		op    ir.Opcode
		a, b  int64
		want  int64
		float bool
	}{
		{"add", ir.OpAdd, 7, 5, 12, false},
		{"sub", ir.OpSub, 7, 5, 2, false},
		{"mul", ir.OpMul, -3, 5, -15, false},
		{"div", ir.OpDiv, 17, 5, 3, false},
		{"div0", ir.OpDiv, 17, 0, 0, false},
		{"rem", ir.OpRem, 17, 5, 2, false},
		{"rem0", ir.OpRem, 17, 0, 0, false},
		{"and", ir.OpAnd, 0b1100, 0b1010, 0b1000, false},
		{"or", ir.OpOr, 0b1100, 0b1010, 0b1110, false},
		{"xor", ir.OpXor, 0b1100, 0b1010, 0b0110, false},
		{"shl", ir.OpShl, 3, 4, 48, false},
		{"shr", ir.OpShr, -16, 2, -4, false},
		{"eq", ir.OpEq, 4, 4, 1, false},
		{"ne", ir.OpNe, 4, 4, 0, false},
		{"lt", ir.OpLt, -1, 0, 1, false},
		{"le", ir.OpLe, 0, 0, 1, false},
		{"fadd", ir.OpFAdd, ir.FloatBits(1.5), ir.FloatBits(2.25), ir.FloatBits(3.75), true},
		{"fmul", ir.OpFMul, ir.FloatBits(1.5), ir.FloatBits(2.0), ir.FloatBits(3.0), true},
		{"fdiv", ir.OpFDiv, ir.FloatBits(3.0), ir.FloatBits(2.0), ir.FloatBits(1.5), true},
		{"flt", ir.OpFLt, ir.FloatBits(1.0), ir.FloatBits(2.0), 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := ir.NewModule("t")
			f := m.NewFunc("main", 0)
			b := f.NewBlock("entry")
			ra, rb, rd := f.NewReg(), f.NewReg(), f.NewReg()
			b.Const(ra, c.a)
			b.Const(rb, c.b)
			b.Bin(c.op, rd, ra, rb)
			b.Ret(rd)
			f.Recompute()
			mach := New(m, Config{})
			got, err := mach.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestCallsAndFrames(t *testing.T) {
	m := ir.NewModule("t")
	// callee(a, b) = a*10 + b, with a frame slot round trip.
	callee := m.NewFunc("callee", 2)
	off := callee.Frame(1)
	cb := callee.NewBlock("entry")
	fa, tv := callee.NewReg(), callee.NewReg()
	cb.MulI(tv, 0, 10)
	cb.Add(tv, tv, 1)
	cb.FrameAddr(fa, off)
	cb.Store(fa, 0, tv)
	cb.Load(tv, fa, 0)
	cb.Ret(tv)
	callee.Recompute()

	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	x, y, r1, r2, s := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b.Const(x, 3)
	b.Const(y, 4)
	b.Call(r1, callee, x, y)
	b.Call(r2, callee, y, x)
	b.Add(s, r1, r2)
	b.Ret(s)
	f.Recompute()

	mach := New(m, Config{})
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 34+43 {
		t.Errorf("got %d, want 77", got)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	r := f.NewReg()
	b.Call(r, f)
	b.Ret(r)
	f.Recompute()
	mach := New(m, Config{MaxDepth: 32})
	if _, err := mach.Run(); !errors.Is(err, ErrCallDepth) {
		t.Errorf("want ErrCallDepth, got %v", err)
	}
}

func TestOutOfBoundsTrap(t *testing.T) {
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
}

func TestInstructionBudget(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	c := f.NewReg()
	b.Const(c, 1)
	b.Jmp(b) // endless self-loop
	f.Recompute()
	mach := New(m, Config{MaxInstrs: 1000})
	if _, err := mach.Run(); !errors.Is(err, ErrBudget) {
		t.Errorf("want ErrBudget, got %v", err)
	}
}

func TestExternsAndOutput(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	v, r := f.NewReg(), f.NewReg()
	b.Const(v, 99)
	b.CallExtern(r, "emit", v)
	b.Ret(r)
	f.Recompute()
	mach := New(m, Config{})
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("emit should return its argument, got %d", got)
	}
	if out := mach.Output(); len(out) != 1 || out[0] != 99 {
		t.Errorf("output stream = %v", out)
	}
	if _, err := mach.Checksum(), error(nil); false {
		_ = err
	}
}

// TestUnknownExternTraps checks that an extern name outside the builtins
// traps with ErrExtern on both engines, and that the trap retires the
// same instructions on each: the call itself counts, the rest of the
// block does not.
func TestUnknownExternTraps(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	r := f.NewReg()
	b.CallExtern(r, "no-such-extern", r)
	b.RetVoid()
	f.Recompute()
	mach := New(m, Config{})
	if _, err := mach.Run(); !errors.Is(err, ErrExtern) {
		t.Errorf("want ErrExtern, got %v", err)
	}

	m2 := ir.NewModule("t2")
	f2 := m2.NewFunc("main", 0)
	b2 := f2.NewBlock("entry")
	x, y := f2.NewReg(), f2.NewReg()
	b2.Const(x, 5)
	b2.CallExtern(y, "emit", x)
	b2.CallExtern(y, "no-such-extern", x, y)
	b2.Const(x, 6)
	b2.Ret(x)
	f2.Recompute()
	for _, e := range []Engine{EngineRef, EngineFast} {
		mach := New(m2, Config{Engine: e})
		if _, err := mach.Run(); !errors.Is(err, ErrExtern) {
			t.Errorf("%s: want ErrExtern, got %v", e, err)
		}
		if mach.Count != 3 || mach.BaseCount != 3 {
			t.Errorf("%s: trap at count (%d,%d), want (3,3)", e, mach.Count, mach.BaseCount)
		}
		if out := mach.Output(); len(out) != 1 || out[0] != 5 {
			t.Errorf("%s: output before the trap = %v, want [5]", e, out)
		}
	}
}

func TestProfileCounts(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	i, bound, cond := f.NewReg(), f.NewReg(), f.NewReg()
	entry.Const(i, 0)
	entry.Jmp(head)
	head.Const(bound, 5)
	head.Bin(ir.OpLt, cond, i, bound)
	head.Br(cond, body, exit)
	body.AddI(i, i, 1)
	body.Jmp(head)
	exit.RetVoid()
	f.Recompute()

	mach := New(m, Config{Profile: true})
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mach.Prof.Block[head]; got != 6 {
		t.Errorf("head executed %d times, want 6", got)
	}
	if got := mach.Prof.Block[body]; got != 5 {
		t.Errorf("body executed %d times, want 5", got)
	}
	if got := mach.Prof.Edge[head]; got[0] != 5 || got[1] != 1 {
		t.Errorf("head edges = %v, want [5 1]", got)
	}
}

// buildCkptFunc assembles a manually instrumented region to test the
// checkpoint runtime directly: region 7 checkpoints X[0] and register v
// before overwriting both.
func buildCkptFunc() (*ir.Module, *ir.Global, []RegionMeta) {
	m := ir.NewModule("ckpt")
	X := m.NewGlobal("X", 4)
	X.Init = []int64{100}
	f := m.NewFunc("main", 0)
	header := f.NewBlock("header")
	recov := f.NewBlock("recover")
	done := f.NewBlock("done")

	xB, v := f.NewReg(), f.NewReg()
	header.SetRecovery(7)
	header.GlobalAddr(xB, X)
	header.Const(v, 1)
	header.CkptReg(v, 7)
	header.CkptMem(xB, 0, 7)
	// Clobber both.
	clob := f.NewReg()
	header.Const(clob, 999)
	header.Store(xB, 0, clob)
	header.Mov(v, clob)
	header.Jmp(done)

	recov.Restore(7)
	recov.Jmp(header) // re-execute the region from its entry

	ret := f.NewReg()
	done.Load(ret, xB, 0)
	done.Add(ret, ret, v)
	done.Ret(ret)
	f.Recompute()

	metas := []RegionMeta{{ID: 7, Fn: f, Header: header, Recovery: recov}}
	return m, X, metas
}

func TestCheckpointAndRestore(t *testing.T) {
	// Without a fault the clobbers win: X[0]=999, v=999.
	mod, _, metas := buildCkptFunc()
	mach := New(mod, Config{})
	mach.SetRuntime(metas)
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 999+999 {
		t.Errorf("normal run = %d, want 1998", got)
	}
	if mach.CkptMemBytes != 8 || mach.CkptRegBytes != 4 {
		t.Errorf("ckpt bytes mem=%d reg=%d, want 8/4", mach.CkptMemBytes, mach.CkptRegBytes)
	}
	if mach.RegionEntries != 1 {
		t.Errorf("region entries = %d", mach.RegionEntries)
	}
}

func TestFaultRollbackRestoresState(t *testing.T) {
	// Inject a fault right after the clobbering store with zero latency:
	// the machine must jump to the recovery block, restore X[0]=100 and
	// v=1, and re-execute the region (clobbering again) — final state is
	// the same as the fault-free run.
	mod, _, metas := buildCkptFunc()
	mach := New(mod, Config{})
	mach.SetRuntime(metas)
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 7, Bit: 3, DetectLatency: 0})
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := mach.FaultReport()
	if !rep.Injected || !rep.Detected || !rep.RolledBack {
		t.Fatalf("fault handling incomplete: %+v", rep)
	}
	if rep.TargetRegion != 7 || !rep.SameInstance {
		t.Errorf("rollback target %d sameInstance=%v", rep.TargetRegion, rep.SameInstance)
	}
	if got != 1998 {
		t.Errorf("recovered run = %d, want 1998", got)
	}
}

func TestFaultRollbackDistanceAndDetectRegion(t *testing.T) {
	// The header executes SetRecovery (count 1) then five more retired
	// slots before the Const the fault corrupts at count 7; zero latency
	// detects there, so the rollback discards exactly 7-1 = 6 dynamic
	// instructions and targets the same live region instance.
	mod, _, metas := buildCkptFunc()
	mach := New(mod, Config{})
	mach.SetRuntime(metas)
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 7, Bit: 3, DetectLatency: 0})
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	rep := mach.FaultReport()
	if !rep.RolledBack {
		t.Fatalf("fault not rolled back: %+v", rep)
	}
	if rep.DetectRegionID != 7 {
		t.Errorf("DetectRegionID = %d, want 7", rep.DetectRegionID)
	}
	if rep.DetectInstance != rep.Site.Instance {
		t.Errorf("DetectInstance = %d, Site.Instance = %d: same-instance rollback must agree",
			rep.DetectInstance, rep.Site.Instance)
	}
	if rep.RollbackDistance != rep.DetectCount-1 {
		t.Errorf("RollbackDistance = %d, want DetectCount-entry = %d",
			rep.RollbackDistance, rep.DetectCount-1)
	}
	if rep.RollbackDistance != 6 {
		t.Errorf("RollbackDistance = %d, want 6", rep.RollbackDistance)
	}
}

func TestFaultDetectFieldsWithoutTarget(t *testing.T) {
	// No region is live at detection: DetectRegionID stays -1 and no
	// rollback distance is reported.
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	v := f.NewReg()
	b.Const(v, 1)
	for i := 0; i < 20; i++ {
		b.AddI(v, v, 1)
	}
	b.Ret(v)
	f.Recompute()
	mach := New(m, Config{})
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 5, Bit: 1, DetectLatency: 2})
	if _, err := mach.Run(); !errors.Is(err, ErrDetectedUnrecoverable) {
		t.Fatalf("want ErrDetectedUnrecoverable, got %v", err)
	}
	rep := mach.FaultReport()
	if rep.DetectRegionID != -1 || rep.DetectInstance != 0 {
		t.Errorf("detect region = %d/%d, want -1/0", rep.DetectRegionID, rep.DetectInstance)
	}
	if rep.RollbackDistance != 0 {
		t.Errorf("RollbackDistance = %d without rollback", rep.RollbackDistance)
	}
}

func TestFaultWithoutRecoveryTarget(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	v := f.NewReg()
	b.Const(v, 1)
	for i := 0; i < 20; i++ {
		b.AddI(v, v, 1)
	}
	b.Ret(v)
	f.Recompute()
	mach := New(m, Config{})
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 5, Bit: 1, DetectLatency: 2})
	if _, err := mach.Run(); !errors.Is(err, ErrDetectedUnrecoverable) {
		t.Errorf("want ErrDetectedUnrecoverable, got %v", err)
	}
}

func TestFaultNotInjectedWhenTooLate(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	v := f.NewReg()
	b.Const(v, 1)
	b.Ret(v)
	f.Recompute()
	mach := New(m, Config{})
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 1 << 40, Bit: 1})
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if mach.FaultReport().Injected {
		t.Error("fault beyond program end must not inject")
	}
}

func TestRegFileStrike(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	v, w := f.NewReg(), f.NewReg()
	b.Const(v, 0)
	b.Const(w, 0)
	for i := 0; i < 10; i++ {
		b.AddI(w, w, 1)
	}
	b.Ret(v) // v is dead weight: strikes on w change nothing returned? no — return v
	f.Recompute()
	mach := New(m, Config{})
	mach.InjectFault(FaultPlan{Mode: CorruptRegFile, InjectAt: 4, TargetReg: 0, Bit: 5, DetectLatency: 1 << 50})
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("strike on r0 bit 5 must surface in return value, got %d", got)
	}
	if !mach.FaultReport().Injected {
		t.Error("strike must be recorded")
	}
}

// TestDetectLatencySaturates: a detection latency within the run's
// length of 2⁶³ saturates the detection point instead of wrapping it
// negative, which would fire the detector at once.
func TestDetectLatencySaturates(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	w := f.NewReg()
	b.Const(w, 0)
	for i := 0; i < 10; i++ {
		b.AddI(w, w, 1)
	}
	b.Ret(w)
	f.Recompute()
	for _, eng := range []Engine{EngineFast, EngineRef} {
		mach := New(m, Config{Engine: eng})
		mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 4, Bit: 5, DetectLatency: math.MaxInt64 - 1})
		_, err := mach.Run()
		if rep := mach.FaultReport(); err != nil || !rep.Injected || rep.Detected {
			t.Errorf("%v: err %v, injected %v, detected %v; want a strike the detector never sees",
				eng, err, rep.Injected, rep.Detected)
		}
	}
}

func TestChecksumDetectsMemoryDiff(t *testing.T) {
	mod, X, metas := buildCkptFunc()
	m1 := New(mod, Config{})
	m1.SetRuntime(metas)
	if _, err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	c1 := m1.Checksum(X)
	m1.Mem[X.Addr] ^= 1
	if m1.Checksum(X) == c1 {
		t.Error("checksum must change when output memory changes")
	}
}

func TestResetReloadsGlobals(t *testing.T) {
	mod, X, metas := buildCkptFunc()
	m1 := New(mod, Config{})
	m1.SetRuntime(metas)
	if _, err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	if m1.Mem[X.Addr] != 999 {
		t.Fatalf("X[0] after run = %d", m1.Mem[X.Addr])
	}
	m1.Reset()
	if m1.Mem[X.Addr] != 100 {
		t.Errorf("Reset must reload initializers, X[0] = %d", m1.Mem[X.Addr])
	}
	if m1.Count != 0 || m1.RegionEntries != 0 {
		t.Error("Reset must clear counters")
	}
}

func TestSwitchTerminator(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 1)
	entry := f.NewBlock("entry")
	t0 := f.NewBlock("t0")
	t1 := f.NewBlock("t1")
	t2 := f.NewBlock("t2")
	entry.Switch(0, t0, t1, t2)
	r := f.NewReg()
	t0.Const(r, 100)
	t0.Ret(r)
	t1.Const(r, 200)
	t1.Ret(r)
	t2.Const(r, 300)
	t2.Ret(r)
	f.Recompute()

	for _, c := range []struct{ arg, want int64 }{{0, 100}, {1, 200}, {2, 300}, {9, 300}, {-3, 100}} {
		mach := New(m, Config{})
		got, err := mach.Call(f, c.arg)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("switch(%d) = %d, want %d", c.arg, got, c.want)
		}
	}
}

// TestTrapBecomesDetectionSymptom: a fault that corrupts an address
// register sends a load out of bounds; with a region armed, the trap is
// absorbed as an immediate detection symptom (§4.3: address faults "are
// typically detected before they propagate") and rollback recovers the
// run instead of crashing it.
func TestTrapBecomesDetectionSymptom(t *testing.T) {
	m := ir.NewModule("trap")
	X := m.NewGlobal("X", 4)
	X.Init = []int64{11, 22, 33, 44}
	f := m.NewFunc("main", 0)
	header := f.NewBlock("header")
	recov := f.NewBlock("recover")
	done := f.NewBlock("done")

	xB, v := f.NewReg(), f.NewReg()
	header.SetRecovery(1)
	header.GlobalAddr(xB, X)
	header.Load(v, xB, 2) // the load whose address register we corrupt
	header.Jmp(done)
	recov.Restore(1)
	recov.Jmp(header)
	done.Ret(v)
	f.Recompute()

	mach := New(m, Config{})
	mach.SetRuntime([]RegionMeta{{ID: 1, Fn: f, Header: header, Recovery: recov}})
	// Corrupt the output of the GlobalAddr (instruction 2, Count==2): a
	// high bit flip turns the address wildly out of bounds. Detection
	// latency is huge — only the trap symptom can save this run.
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 2, Bit: 62, DetectLatency: 1 << 40})
	got, err := mach.Run()
	if err != nil {
		t.Fatalf("trap symptom did not recover: %v", err)
	}
	rep := mach.FaultReport()
	if !rep.Detected || !rep.RolledBack {
		t.Fatalf("expected detect+rollback, got %+v", rep)
	}
	if got != 33 {
		t.Errorf("recovered value = %d, want 33", got)
	}
}

// TestTrapWithoutRegionStillFails: the same corruption without an armed
// region surfaces as an unrecoverable detection.
func TestTrapWithoutRegionStillFails(t *testing.T) {
	m := ir.NewModule("trap2")
	X := m.NewGlobal("X", 4)
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	xB, v := f.NewReg(), f.NewReg()
	b.GlobalAddr(xB, X)
	b.Load(v, xB, 0)
	b.Ret(v)
	f.Recompute()
	mach := New(m, Config{})
	mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 1, Bit: 62, DetectLatency: 1 << 40})
	if _, err := mach.Run(); !errors.Is(err, ErrDetectedUnrecoverable) {
		t.Errorf("want ErrDetectedUnrecoverable, got %v", err)
	}
}

func TestUnarySemantics(t *testing.T) {
	cases := []struct {
		name string
		op   ir.Opcode
		a    int64
		imm  int64
		want int64
	}{
		{"mov", ir.OpMov, 42, 0, 42},
		{"neg", ir.OpNeg, 42, 0, -42},
		{"not", ir.OpNot, 0, 0, -1},
		{"fneg", ir.OpFNeg, ir.FloatBits(2.5), 0, ir.FloatBits(-2.5)},
		{"itof", ir.OpIToF, 7, 0, ir.FloatBits(7.0)},
		{"ftoi", ir.OpFToI, ir.FloatBits(7.9), 0, 7},
		{"ftoi-neg", ir.OpFToI, ir.FloatBits(-7.9), 0, -7},
		{"addi", ir.OpAddI, 40, 2, 42},
		{"muli", ir.OpMulI, 6, 7, 42},
		{"andi", ir.OpAndI, 0xff, 0x0f, 0x0f},
		{"shli", ir.OpShlI, 3, 4, 48},
		{"shri", ir.OpShrI, -64, 3, -8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := ir.NewModule("t")
			f := m.NewFunc("main", 0)
			b := f.NewBlock("entry")
			ra, rd := f.NewReg(), f.NewReg()
			b.Const(ra, c.a)
			b.ImmOp(c.op, rd, ra, c.imm)
			b.Ret(rd)
			f.Recompute()
			mach := New(m, Config{})
			got, err := mach.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

// TestFrameIsolation: two invocations of the same function get distinct
// frame storage, and frames release on return (stack pointer discipline).
func TestFrameIsolation(t *testing.T) {
	m := ir.NewModule("t")
	callee := m.NewFunc("callee", 1)
	off := callee.Frame(1)
	cb := callee.NewBlock("entry")
	fa, v := callee.NewReg(), callee.NewReg()
	cb.FrameAddr(fa, off)
	cb.Load(v, fa, 0) // reads whatever the slot holds (stale or zero)
	cb.Store(fa, 0, 0)
	cb.Ret(v)
	callee.Recompute()

	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	x, r1, r2, s := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b.Const(x, 77)
	b.Call(r1, callee, x) // writes 77 into the slot
	b.Call(r2, callee, x) // same stack address: sees the stale 77
	b.Add(s, r1, r2)
	b.Ret(s)
	f.Recompute()

	mach := New(m, Config{})
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	// First call reads 0 (fresh memory), second reads the stale 77 the
	// first call stored — the classic uninitialized-stack behavior the
	// alias summaries' "own frame is invisible" rule relies on being
	// program-invisible only for well-formed (initializing) callees.
	if got != 77 {
		t.Errorf("got %d, want 77 (0 then stale 77)", got)
	}
}
