package interp

import (
	"errors"
	"slices"
	"testing"

	"encore/internal/ir"
)

// buildReconvKernel assembles a small instrumented program for the
// reconvergence tests: main calls work(i) forty times; work's region 1
// checkpoints its parameter, spins an inner loop, then writes the result
// to A[i&63] and to a stack slot and emits it. Most of the run is inside
// work, so most rungs see two frames, an armed region buffer with one
// entry, and dirty data and stack words.
func buildReconvKernel() (*ir.Module, *ir.Global, []RegionMeta) {
	m := ir.NewModule("reconv")
	A := m.NewGlobal("A", 64)

	work := m.NewFunc("work", 1)
	slot := work.Frame(1)
	header := work.NewBlock("header")
	inner := work.NewBlock("inner")
	tail := work.NewBlock("tail")
	recov := work.NewBlock("recover")
	i := ir.Reg(0)
	a, k, acc, lim, c, p, fa, e := work.NewReg(), work.NewReg(), work.NewReg(), work.NewReg(),
		work.NewReg(), work.NewReg(), work.NewReg(), work.NewReg()
	header.SetRecovery(1)
	header.CkptReg(i, 1)
	header.GlobalAddr(a, A)
	header.Const(k, 0)
	header.Const(lim, 20)
	header.AddI(acc, i, 1)
	header.Jmp(inner)
	inner.MulI(acc, acc, 31)
	inner.Add(acc, acc, k)
	inner.AddI(k, k, 1)
	inner.Bin(ir.OpLt, c, k, lim)
	inner.Br(c, inner, tail)
	tail.AndI(p, i, 63)
	tail.Add(p, a, p)
	tail.Store(p, 0, acc)
	tail.FrameAddr(fa, slot)
	tail.Store(fa, 0, acc)
	tail.CallExtern(e, "emit", acc)
	tail.Ret(acc)
	recov.Restore(1)
	recov.Jmp(header)
	work.Recompute()

	main := m.NewFunc("main", 0)
	entry := main.NewBlock("entry")
	loop := main.NewBlock("loop")
	body := main.NewBlock("body")
	done := main.NewBlock("done")
	n, s, mlim, mc, r := main.NewReg(), main.NewReg(), main.NewReg(), main.NewReg(), main.NewReg()
	entry.Const(n, 0)
	entry.Const(s, 0)
	entry.Const(mlim, 40)
	entry.Jmp(loop)
	loop.Bin(ir.OpLt, mc, n, mlim)
	loop.Br(mc, body, done)
	body.Call(r, work, n)
	body.Add(s, s, r)
	body.AddI(n, n, 1)
	body.Jmp(loop)
	done.Ret(s)
	main.Recompute()

	return m, A, []RegionMeta{{ID: 1, Fn: work, Header: header, Recovery: recov}}
}

// reconvFixture is the kernel, its golden ladder, and a fault plan whose
// trial rolls back and then rejoins the golden run.
type reconvFixture struct {
	mod    *ir.Module
	out    *ir.Global
	metas  []RegionMeta
	lad    *Ladder
	golden uint64
	plan   FaultPlan
}

var reconvCfg = Config{MemWords: 1 << 16, StackWords: 1 << 10}

func newReconvFixture(t *testing.T) *reconvFixture {
	t.Helper()
	mod, out, metas := buildReconvKernel()
	capm := New(mod, reconvCfg)
	defer capm.Release()
	capm.SetRuntime(metas)
	if _, err := capm.Run(); err != nil {
		t.Fatal(err)
	}
	golden, total := capm.Checksum(out), capm.Count
	_, lad, err := capm.RunWithSnapshots(LadderRungs(16, total))
	if err != nil {
		t.Fatal(err)
	}
	// Strike the inner loop of the 13th call; a 4-instruction latency
	// keeps detection inside the same work instance, so it rolls back.
	at := total/3 + 10
	return &reconvFixture{mod: mod, out: out, metas: metas, lad: lad, golden: golden,
		plan: FaultPlan{Mode: CorruptOutput, InjectAt: at, Bit: 5, DetectLatency: 4}}
}

// trialRun is everything a campaign reads from one trial.
type trialRun struct {
	ret    int64
	err    error
	rep    FaultReport
	count  int64 // the projected count when the run reconverged
	sum    uint64
	reconv bool
	rung   int // index of the matched rung in the armed ladder
}

// replay runs the plan the historical way: Reset, arm, run to the end.
func (f *reconvFixture) replay(t *testing.T, maxInstrs int64) trialRun {
	t.Helper()
	cfg := reconvCfg
	cfg.MaxInstrs = maxInstrs
	m := New(f.mod, cfg)
	defer m.Release()
	m.SetRuntime(f.metas)
	m.InjectFault(f.plan)
	ret, err := m.Run()
	return trialRun{ret: ret, err: err, rep: m.FaultReport(), count: m.Count, sum: m.Checksum(f.out)}
}

// fork runs the plan forked from the golden ladder's best rung below it,
// with early exit armed against arm.
func (f *reconvFixture) fork(t *testing.T, arm *Ladder, maxInstrs int64) trialRun {
	t.Helper()
	cfg := reconvCfg
	cfg.MaxInstrs = maxInstrs
	m := New(f.mod, cfg)
	defer m.Release()
	m.SetRuntime(f.metas)
	if err := m.Restore(f.lad.Best(f.plan.InjectAt)); err != nil {
		t.Fatal(err)
	}
	m.InjectFault(f.plan)
	m.ArmReconverge(arm)
	ret, err := m.Resume()
	tr := trialRun{ret: ret, err: err, rep: m.FaultReport(), count: m.Count}
	if final, ok := m.Reconverged(); ok {
		tr.count, tr.reconv, tr.rung = final, true, m.reconv.next-1
	} else {
		tr.sum = m.Checksum(f.out)
	}
	return tr
}

// sameResult checks that a trial's result equals the replay path's.
func sameResult(t *testing.T, label string, got, want trialRun) {
	t.Helper()
	if got.ret != want.ret || got.count != want.count || got.rep != want.rep ||
		(got.err == nil) != (want.err == nil) || errors.Is(got.err, ErrBudget) != errors.Is(want.err, ErrBudget) {
		t.Errorf("%s: trial diverged from replay:\n got ret %d count %d err %v rep %+v\nwant ret %d count %d err %v rep %+v",
			label, got.ret, got.count, got.err, got.rep, want.ret, want.count, want.err, want.rep)
	}
	if !got.reconv && got.sum != want.sum {
		t.Errorf("%s: checksum %#x, replay %#x", label, got.sum, want.sum)
	}
}

// TestReconvergeMatchesReplay: a rolled-back trial armed against the
// golden ladder ends early, and its projected count, fault report and
// return value equal the replay trial's, whose output equals golden.
func TestReconvergeMatchesReplay(t *testing.T) {
	f := newReconvFixture(t)
	want := f.replay(t, 0)
	if want.err != nil || !want.rep.RolledBack || want.sum != f.golden {
		t.Fatalf("fixture plan must roll back and recover: err %v rep %+v", want.err, want.rep)
	}
	got := f.fork(t, f.lad, 0)
	if !got.reconv {
		t.Fatal("armed trial ran to the end; want an early exit at a golden rung")
	}
	if delta := want.rep.RollbackDistance + rollbackCost; got.count != f.lad.total+delta {
		t.Errorf("projected count %d, want golden %d + δ %d", got.count, f.lad.total, delta)
	}
	sameResult(t, "reconverged", got, want)

	// Unarmed and nil-armed forks run to the end like the replay.
	if run := f.fork(t, nil, 0); run.reconv {
		t.Error("nil ladder armed an early exit")
	} else {
		sameResult(t, "unarmed", run, want)
	}
}

// TestReconvergeIgnoredDetection covers δ = 0: a tolerant region ignores
// the detection of a fault that corrupted nothing, so the trial never
// left the golden run, rejoins it at the next rung with no offset, and
// its projection is the golden count itself.
func TestReconvergeIgnoredDetection(t *testing.T) {
	f := newReconvFixture(t)
	f.metas = []RegionMeta{f.metas[0]}
	f.metas[0].Policy = IgnoreFault
	f.plan.Mode = PhantomFault
	want := f.replay(t, 0)
	if want.err != nil || !want.rep.Ignored || want.rep.RolledBack || want.sum != f.golden || want.count != f.lad.total {
		t.Fatalf("fixture plan must be ignored and benign: err %v count %d rep %+v", want.err, want.count, want.rep)
	}
	got := f.fork(t, f.lad, 0)
	if !got.reconv {
		t.Fatal("armed trial ran to the end; want an early exit at a golden rung")
	}
	sameResult(t, "ignored", got, want)
}

// TestReconvergeUndetectableFault: a strike whose detection lies past
// the budget can never be detected, so it settles at injection with
// δ = 0. This one flips work's register 8, which holds emit's result and
// is written before it is read, so the trial rejoins the golden run at
// the next rung: its projected count is the golden total, and its result
// equals the replay's. The same strike with a reachable detection is not
// settled at injection, so it runs on to that detection.
func TestReconvergeUndetectableFault(t *testing.T) {
	f := newReconvFixture(t)
	at := f.plan.InjectAt
	budget := f.lad.total + 1000
	for _, c := range []struct {
		name               string
		latency, maxInstrs int64
	}{
		{"never detected", 1 << 60, 0},
		{"detection one past the budget", budget - at + 1, budget},
	} {
		f.plan = FaultPlan{Mode: CorruptRegFile, InjectAt: at, TargetReg: 8, Bit: 3, DetectLatency: c.latency}
		want := f.replay(t, c.maxInstrs)
		if want.err != nil || want.rep.Detected || want.sum != f.golden || want.count != f.lad.total {
			t.Fatalf("%s: fixture strike must be masked and undetected: err %v count %d rep %+v",
				c.name, want.err, want.count, want.rep)
		}
		got := f.fork(t, f.lad, c.maxInstrs)
		if !got.reconv {
			t.Errorf("%s: armed trial ran to the end; want an early exit at a golden rung", c.name)
			continue
		}
		if rung := f.lad.snaps[got.rung].count; rung <= at || got.rung > 0 && f.lad.snaps[got.rung-1].count > at {
			t.Errorf("%s: exit at rung %d (count %d); want the first rung past the strike at %d", c.name, got.rung, rung, at)
		}
		sameResult(t, c.name, got, want)
	}

	f.plan.DetectLatency = f.lad.total / 8
	want := f.replay(t, 0)
	got := f.fork(t, f.lad, 0)
	if !want.rep.Detected || !got.rep.Detected {
		t.Errorf("reachable detection at %d did not fire: replay %v, armed fork %v",
			at+f.plan.DetectLatency, want.rep.Detected, got.rep.Detected)
	}
	sameResult(t, "reachable detection", got, want)
}

// TestReconvergeCompareCatchesDifference arms the trial against a
// one-rung ladder holding the rung it rejoins, with one piece of state
// altered. Each alteration must block the early exit and leave the
// trial's result equal to the replay path's.
func TestReconvergeCompareCatchesDifference(t *testing.T) {
	f := newReconvFixture(t)
	want := f.replay(t, 0)
	hit := f.fork(t, f.lad, 0)
	if !hit.reconv {
		t.Fatal("fixture trial does not reconverge")
	}
	snap := f.lad.snaps[hit.rung]
	top := len(snap.frames) - 1
	data, stk := deltaWords(snap.data), deltaWords(snap.stk)
	if top < 1 || snap.frames[top].region == nil || len(snap.frames[top].region.entries) == 0 ||
		len(data) == 0 || data[len(data)-1] == 0 || len(stk) == 0 || len(snap.output) == 0 {
		t.Fatalf("rung %d lacks the state the alterations need: %d frames, data %d words, stack %d words, output %d",
			hit.rung, len(snap.frames), len(data), len(stk), len(snap.output))
	}
	one := func(s *Snapshot) *Ladder { return &Ladder{snaps: []*Snapshot{s}, total: f.lad.total, ret: f.lad.ret} }
	if run := f.fork(t, one(snap), 0); !run.reconv {
		t.Fatal("unaltered one-rung ladder does not reconverge")
	}

	cases := []struct {
		name  string
		alter func(s *Snapshot)
	}{
		{"data word in span", func(s *Snapshot) {
			w := slices.Clone(data)
			w[len(w)/2] ^= 1
			s.data = withWords(s.data, w)
		}},
		{"trial-only data tail", func(s *Snapshot) {
			// The snapshot no longer covers its last dirty word, so the
			// trial's nonzero word there lies in a trial-only tail.
			s.data = withWords(s.data, data[:len(data)-1])
		}},
		{"stack word", func(s *Snapshot) {
			w := slices.Clone(stk)
			w[len(w)-1] ^= 1
			s.stk = withWords(s.stk, w)
		}},
		{"register in a non-top frame", func(s *Snapshot) { s.frames[0].regs[0] ^= 1 }},
		{"region buffer entry", func(s *Snapshot) { s.frames[len(s.frames)-1].region.entries[0].val ^= 1 }},
		{"extra output value", func(s *Snapshot) { s.output = append(s.output, 7) }},
		{"pc", func(s *Snapshot) { s.pc++ }},
	}
	for _, c := range cases {
		alt := cloneSnapshot(snap)
		c.alter(alt)
		got := f.fork(t, one(alt), 0)
		if got.reconv {
			t.Errorf("%s: early exit taken against a differing rung", c.name)
			continue
		}
		sameResult(t, c.name, got, want)
	}
}

// TestReconvergeBudgetGuard: a budget below the projected end must not
// early-exit, so the trial reaches the replay path's budget trap; a
// budget exactly at the projected end still may.
func TestReconvergeBudgetGuard(t *testing.T) {
	f := newReconvFixture(t)
	final := f.replay(t, 0).count

	want := f.replay(t, final-1)
	if !errors.Is(want.err, ErrBudget) {
		t.Fatalf("replay under budget %d: err %v, want ErrBudget", final-1, want.err)
	}
	got := f.fork(t, f.lad, final-1)
	if got.reconv || !errors.Is(got.err, ErrBudget) {
		t.Errorf("fork under budget %d: reconverged %v err %v, want the budget trap", final-1, got.reconv, got.err)
	}
	sameResult(t, "budget", got, want)

	exact := f.fork(t, f.lad, final)
	if !exact.reconv {
		t.Error("budget equal to the projected end blocked the early exit")
	}
	sameResult(t, "exact budget", exact, f.replay(t, final))
}

// cloneSnapshot deep-copies the parts of s the alterations touch in
// place; the memory alterations replace a delta instead.
func cloneSnapshot(s *Snapshot) *Snapshot {
	c := *s
	c.output = slices.Clone(s.output)
	c.frames = slices.Clone(s.frames)
	for i := range c.frames {
		sf := &c.frames[i]
		sf.regs = slices.Clone(sf.regs)
		if sf.region != nil {
			r := *sf.region
			r.entries = slices.Clone(r.entries)
			sf.region = &r
		}
	}
	return &c
}
