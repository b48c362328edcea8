package progen

import (
	"fmt"

	"encore/internal/alias"
	"encore/internal/core"
	"encore/internal/idem"
	"encore/internal/interp"
	"encore/internal/ir"
)

// oracleBudget is the dynamic-instruction budget for every oracle run —
// far above anything the bounded generator can produce, so hitting it
// means runaway execution and is reported as a failure.
const oracleBudget = 1 << 22

// defaultPoints is the per-program cap on sampled injection points when
// Params.MaxPoints is zero.
const defaultPoints = 160

// minDynInstrs is the dynamic length below which a generated program is
// considered trivial and skipped by the fault-driven oracles.
const minDynInstrs = 30

// Counterexample is an oracle failure: which oracle tripped, the
// generator parameters that rebuild the program bit-for-bit, and the
// reproducing IR.
type Counterexample struct {
	Oracle string
	Params Params
	Detail string
	IR     string
}

func (c *Counterexample) Error() string {
	return fmt.Sprintf("progen %s oracle failed (seed %d): %s\nreproduce: progen.Generate(%#v)\n%s",
		c.Oracle, c.Params.Seed, c.Detail, c.Params, c.IR)
}

// runState is the architecturally visible outcome of a complete run: the
// return value plus a checksum over every global and the emitted output
// stream.
type runState struct {
	ret int64
	sum uint64
}

func stateOf(m *interp.Machine, ret int64) runState {
	return runState{ret: ret, sum: m.Checksum(m.Mod.Globals...)}
}

// compiled is one generated program taken through the full pipeline,
// ready for fault-driven oracle sweeps.
type compiled struct {
	p      Params
	res    *core.Result
	golden runState
	total  int64 // fault-free dynamic instruction count

	// selected maps each selected region's ID to its block set; class
	// records every formed region's idempotence verdict for attribution.
	selected map[int]map[*ir.Block]bool
	class    map[int]idem.Class
}

// compile generates the program for p, records its fault-free golden
// state, and instruments it with a generous budget so every protectable
// region is selected. Returns (nil, nil) for programs too short to probe.
func compile(p Params, profiled bool) (*compiled, error) {
	p = p.Normalized()
	mod := Generate(p)
	gm := interp.New(mod, interp.Config{MaxInstrs: oracleBudget})
	defer gm.Release()
	ret, err := gm.Run()
	if err != nil {
		return nil, &Counterexample{Oracle: "generator", Params: p,
			Detail: fmt.Sprintf("fault-free run failed: %v", err), IR: mod.String()}
	}
	c := &compiled{p: p, golden: stateOf(gm, ret), total: gm.Count}
	if c.total < minDynInstrs {
		return nil, nil
	}
	cfg := core.DefaultConfig()
	cfg.Budget = 10 // select everything protectable
	cfg.Interp.MaxInstrs = oracleBudget
	if profiled {
		cfg.AliasMode = alias.Profiled
	}
	res, err := core.Compile(mod, cfg)
	if err != nil {
		return nil, &Counterexample{Oracle: "compile", Params: p,
			Detail: err.Error(), IR: mod.String()}
	}
	c.res = res
	c.selected = make(map[int]map[*ir.Block]bool)
	c.class = make(map[int]idem.Class, len(res.Regions))
	for _, r := range res.Regions {
		c.class[r.ID] = r.Analysis.Class
		if r.Selected {
			c.selected[r.ID] = r.Blocks
		}
	}
	return c, nil
}

// covered reports whether the fault site sits inside the static block
// extent of the selected region the recovery pointer named. Together with
// SameInstance this is the precise "detected before control left the
// region" event: regions are single-entry, so a same-instance site inside
// the extent means the whole window from the region header to the site is
// region code the analysis vouches for. Sites outside the extent ride a
// stale recovery pointer (control already left the region without
// entering another); re-execution then replays unanalyzed gap code and no
// guarantee exists.
func (c *compiled) covered(rep interp.FaultReport) bool {
	if rep.Site.RegionID < 0 {
		return false
	}
	bs := c.selected[rep.Site.RegionID]
	return bs != nil && bs[rep.Site.Block]
}

// points samples dynamic injection counts 1..total-1 with an even stride.
func (c *compiled) points() []int64 {
	limit := c.p.MaxPoints
	if limit <= 0 {
		limit = defaultPoints
	}
	n := c.total - 1
	if n < 1 {
		return nil
	}
	step := n / int64(limit)
	if step < 1 {
		step = 1
	}
	out := make([]int64, 0, limit+1)
	for at := int64(1); at <= n; at += step {
		out = append(out, at)
	}
	return out
}

func (c *compiled) fail(oracle, detail string) error {
	return &Counterexample{Oracle: oracle, Params: c.p, Detail: detail, IR: c.res.Mod.String()}
}

// CheckIdempotence is the idempotence oracle: at every sampled dynamic
// instruction it arms a phantom fault — no corruption, detection only —
// so the triggered rollback re-executes the covered region from its entry
// with bitwise-clean inputs. Whenever the rollback hits a covered
// same-instance site, the final architectural state must match the
// fault-free run exactly: a divergence in a region classified idempotent
// is a soundness bug in the RS/GA/EA dataflow (Equations 1–4, loop
// meta-summaries included); in a non-idempotent region it is a checkpoint
// placement or restore bug. Returns the number of rollbacks verified.
func CheckIdempotence(p Params) (int, error) {
	c, err := compile(p, false)
	if c == nil || err != nil {
		return 0, err
	}
	m := interp.New(c.res.Mod, interp.Config{MaxInstrs: oracleBudget})
	defer m.Release()
	m.SetRuntime(c.res.Metas)
	verified := 0
	for _, at := range c.points() {
		m.Reset()
		m.InjectFault(interp.FaultPlan{Mode: interp.PhantomFault, InjectAt: at, DetectLatency: 0})
		ret, err := m.Run()
		rep := m.FaultReport()
		if !rep.Injected || !rep.RolledBack || !rep.SameInstance || !c.covered(rep) {
			continue // uncovered site (or never reached): no promise to check
		}
		if err != nil {
			return verified, c.fail("idempotence",
				fmt.Sprintf("phantom rollback at %d (region %d, class %s): run failed: %v",
					at, rep.TargetRegion, c.class[rep.TargetRegion], err))
		}
		verified++
		if got := stateOf(m, ret); got != c.golden {
			return verified, c.fail("idempotence",
				fmt.Sprintf("phantom rollback at %d diverged in region %d (class %s): got ret=%d sum=%#x, want ret=%d sum=%#x",
					at, rep.TargetRegion, c.class[rep.TargetRegion],
					got.ret, got.sum, c.golden.ret, c.golden.sum))
		}
	}
	return verified, nil
}

// CheckRecovery is the recovery oracle: it injects a real bit-flip
// (CorruptOutput, zero detection latency) at every sampled dynamic
// instruction. For any fault whose site lies inside a covered region the
// runtime MUST roll back to that very region instance and the final
// architectural state MUST be byte-identical to the fault-free run —
// validating CKPT.MEM/CKPT.REG placement and the recovery-block dispatch
// end to end. Faults striking uncovered code carry no promise and any
// outcome is tolerated. Returns the number of recoveries verified.
func CheckRecovery(p Params) (int, error) {
	c, err := compile(p, false)
	if c == nil || err != nil {
		return 0, err
	}
	m := interp.New(c.res.Mod, interp.Config{MaxInstrs: oracleBudget})
	defer m.Release()
	m.SetRuntime(c.res.Metas)
	verified := 0
	for _, at := range c.points() {
		m.Reset()
		m.InjectFault(interp.FaultPlan{
			Mode:          interp.CorruptOutput,
			InjectAt:      at,
			Bit:           uint8((uint64(at)*7 + c.p.Seed) % 48),
			DetectLatency: 0,
		})
		ret, err := m.Run()
		rep := m.FaultReport()
		if !rep.Injected || !c.covered(rep) {
			continue // uncovered strike: no promise to check
		}
		if err != nil {
			return verified, c.fail("recovery",
				fmt.Sprintf("covered fault at %d (region %d, class %s) did not recover: %v",
					at, rep.Site.RegionID, c.class[rep.Site.RegionID], err))
		}
		if !rep.RolledBack || !rep.SameInstance || rep.TargetRegion != rep.Site.RegionID {
			return verified, c.fail("recovery",
				fmt.Sprintf("covered fault at %d in region %d misdispatched: rolledback=%v sameinstance=%v target=%d",
					at, rep.Site.RegionID, rep.RolledBack, rep.SameInstance, rep.TargetRegion))
		}
		verified++
		if got := stateOf(m, ret); got != c.golden {
			return verified, c.fail("recovery",
				fmt.Sprintf("rollback at %d in region %d (class %s) left divergent state: got ret=%d sum=%#x, want ret=%d sum=%#x",
					at, rep.Site.RegionID, c.class[rep.Site.RegionID],
					got.ret, got.sum, c.golden.ret, c.golden.sum))
		}
	}
	return verified, nil
}

// CheckEngines is the engine-equivalence oracle: the generated program —
// both uninstrumented and instrumented — must produce identical
// trajectories on the default (closure-compiled) engine as on the
// reference loop: return value, instruction counters, checkpoint
// traffic, region entries, memory/output checksum, and execution
// profile. The instrumented program is then swept with injected
// bit-flips under both engines, which must agree on the complete fault
// trajectory — exercising the default engine's delegation, rollback, and
// hand-back arms.
func CheckEngines(p Params) error {
	p = p.Normalized()
	mod := Generate(p)
	if err := mod.Verify(); err != nil {
		return &Counterexample{Oracle: "generator", Params: p, Detail: err.Error(), IR: mod.String()}
	}
	if err := diffEngines(p, mod, nil, "plain"); err != nil {
		return err
	}
	// Instrumented variant: regenerate (Compile instruments in place).
	imod := Generate(p)
	cfg := core.DefaultConfig()
	cfg.Budget = 10
	cfg.Interp.MaxInstrs = oracleBudget
	if p.Profiled {
		cfg.AliasMode = alias.Profiled
	}
	res, err := core.Compile(imod, cfg)
	if err != nil {
		return &Counterexample{Oracle: "compile", Params: p, Detail: err.Error(), IR: imod.String()}
	}
	if err := diffEngines(p, res.Mod, res.Metas, "instrumented"); err != nil {
		return err
	}
	if err := diffFaultedEngines(p, res); err != nil {
		return err
	}
	return diffSnapshotRestore(p, res)
}

// diffEngines runs mod through the reference loop and the default
// engine, diffing everything observable against the reference run.
func diffEngines(p Params, mod *ir.Module, metas []interp.RegionMeta, label string) error {
	run := func(e interp.Engine) (*interp.Machine, int64, error) {
		m := interp.New(mod, interp.Config{MaxInstrs: oracleBudget, Profile: true, Engine: e})
		if metas != nil {
			m.SetRuntime(metas)
		}
		ret, err := m.Run()
		return m, ret, err
	}
	ref, rret, rerr := run(interp.EngineRef)
	defer ref.Release()
	got, gret, gerr := run(interp.EngineFast)
	defer got.Release()
	fail := func(detail string) error {
		return &Counterexample{Oracle: "engines", Params: p,
			Detail: fmt.Sprintf("%s module, default engine: %s", label, detail), IR: mod.String()}
	}
	if gerr != nil || rerr != nil {
		return fail(fmt.Sprintf("run errors: default=%v ref=%v", gerr, rerr))
	}
	if gret != rret {
		return fail(fmt.Sprintf("return: default=%d ref=%d", gret, rret))
	}
	if got.Count != ref.Count || got.BaseCount != ref.BaseCount {
		return fail(fmt.Sprintf("counters: default=(%d,%d) ref=(%d,%d)",
			got.Count, got.BaseCount, ref.Count, ref.BaseCount))
	}
	if gs, rs := got.Checksum(mod.Globals...), ref.Checksum(mod.Globals...); gs != rs {
		return fail(fmt.Sprintf("checksum: default=%#x ref=%#x", gs, rs))
	}
	if got.CkptRegBytes != ref.CkptRegBytes || got.CkptMemBytes != ref.CkptMemBytes ||
		got.RegionEntries != ref.RegionEntries || got.MaxBufferBytes != ref.MaxBufferBytes {
		return fail(fmt.Sprintf("ckpt traffic: default=(%d,%d,%d,%d) ref=(%d,%d,%d,%d)",
			got.CkptRegBytes, got.CkptMemBytes, got.RegionEntries, got.MaxBufferBytes,
			ref.CkptRegBytes, ref.CkptMemBytes, ref.RegionEntries, ref.MaxBufferBytes))
	}
	if detail, ok := diffProfiles(got.Prof, ref.Prof); !ok {
		return fail(fmt.Sprintf("profile vs ref: %s", detail))
	}
	return nil
}

// faultPoints caps the injected sweep of the faulted engine comparison:
// CheckRecovery already sweeps the default engine densely, so a thin
// sample suffices to pin its fault arms against the reference loop.
const faultPoints = 24

// diffFaultedEngines drives the instrumented program through injected
// bit-flip trials on the default engine and the reference loop and
// requires identical fault trajectories: the default engine must pause
// before each injection window, delegate to the reference loop so the
// fault lands at the same point, and resume where it should — so the
// complete fault report, instruction counters, recovered return value,
// final checksum, and execution profile all match, trial by trial. A
// trial that traps still matches on its report, counters and profile:
// both engines count a block when its terminator retires. Handoff
// tallies are the one difference by design: a run pinned to the
// reference loop has none.
func diffFaultedEngines(p Params, res *core.Result) error {
	run := func(e interp.Engine) *interp.Machine {
		m := interp.New(res.Mod, interp.Config{MaxInstrs: oracleBudget, Profile: true, Engine: e})
		m.SetRuntime(res.Metas)
		return m
	}
	def := run(interp.EngineFast)
	defer def.Release()
	ref := run(interp.EngineRef)
	defer ref.Release()
	if _, err := def.Run(); err != nil {
		return nil // fault-free failures are diffEngines's to report
	}
	total := def.Count
	if total < minDynInstrs {
		return nil
	}
	step := (total - 1) / faultPoints
	if step < 1 {
		step = 1
	}
	for at := int64(1); at < total; at += step {
		plan := interp.FaultPlan{
			Mode:          interp.CorruptOutput,
			InjectAt:      at,
			Bit:           uint8((uint64(at)*11 + p.Seed) % 48),
			DetectLatency: at % 3, // cover zero- and nonzero-latency windows
		}
		fail := func(detail string) error {
			return &Counterexample{Oracle: "engines", Params: p,
				Detail: fmt.Sprintf("faulted trial at %d: %s", at, detail), IR: res.Mod.String()}
		}
		def.Reset()
		def.InjectFault(plan)
		dret, derr := def.Run()
		ref.Reset()
		ref.InjectFault(plan)
		rret, rerr := ref.Run()
		if (derr == nil) != (rerr == nil) {
			return fail(fmt.Sprintf("run errors: default=%v ref=%v", derr, rerr))
		}
		if dr, rr := def.FaultReport(), ref.FaultReport(); dr != rr {
			return fail(fmt.Sprintf("fault reports diverge:\ndefault: %+v\nref:     %+v", dr, rr))
		}
		if def.Count != ref.Count || def.BaseCount != ref.BaseCount {
			return fail(fmt.Sprintf("counters: default=(%d,%d) ref=(%d,%d)",
				def.Count, def.BaseCount, ref.Count, ref.BaseCount))
		}
		if detail, ok := diffProfiles(def.Prof, ref.Prof); !ok {
			return fail(fmt.Sprintf("profile vs ref: %s", detail))
		}
		if derr != nil {
			continue // the rest of the state after a trap carries no promise
		}
		if dret != rret {
			return fail(fmt.Sprintf("return: default=%d ref=%d", dret, rret))
		}
		if ds, rs := def.Checksum(res.Mod.Globals...), ref.Checksum(res.Mod.Globals...); ds != rs {
			return fail(fmt.Sprintf("checksum: default=%#x ref=%#x", ds, rs))
		}
	}
	return nil
}

// diffSnapshotRestore is the fork-from-checkpoint oracle: a snapshot
// ladder captured during the instrumented golden run, restored onto a
// machine of each engine, must resume into exactly the from-scratch
// trajectory — fault-free from every rung, and with the same fault
// reports when a trial is armed after the restore. Every faulted fork
// runs a second time with early exit armed against the ladder; when it
// reconverges, its projected count, fault report and return value must
// equal the replay trial's, which must have completed with the golden
// checksum. It checks both capture passes: RunWithSnapshots at
// LadderRungs' spacing, and the campaign's one-pass RunLadder, whose end
// state must also be the golden run's. RunLadder starts from a stride of
// one instruction here, so even a short program's pass thins its ladder
// several times. This locks the invariants the SFI campaign scheduler
// builds on.
func diffSnapshotRestore(p Params, res *core.Result) error {
	capm := interp.New(res.Mod, interp.Config{MaxInstrs: oracleBudget})
	defer capm.Release()
	capm.SetRuntime(res.Metas)
	gret, err := capm.Run()
	if err != nil {
		return nil // fault-free failures are diffEngines's to report
	}
	total, golden := capm.Count, capm.Checksum(res.Mod.Globals...)
	if total < minDynInstrs {
		return nil
	}
	fail := func(detail string) error {
		return &Counterexample{Oracle: "snapshot", Params: p, Detail: detail, IR: res.Mod.String()}
	}
	_, lad, err := capm.RunWithSnapshots(interp.LadderRungs(5, total))
	if err != nil {
		return fail(err.Error())
	}
	oret, one, err := capm.RunLadder(3, 1)
	if err != nil {
		return fail(err.Error())
	}
	if oret != gret || capm.Count != total || capm.Checksum(res.Mod.Globals...) != golden {
		return fail(fmt.Sprintf("one-pass ladder run: ret %d/%d count %d/%d, golden checksum %v",
			oret, gret, capm.Count, total, capm.Checksum(res.Mod.Globals...) == golden))
	}
	for _, l := range []*interp.Ladder{lad, one} {
		if err := diffLadderForks(p, res, l, golden); err != nil {
			return err
		}
	}
	return nil
}

// diffLadderForks runs diffSnapshotRestore's fault-free and faulted fork
// checks against one golden ladder.
func diffLadderForks(p Params, res *core.Result, lad *interp.Ladder, golden uint64) error {
	total := lad.GoldenInstrs()
	for _, e := range []interp.Engine{interp.EngineRef, interp.EngineFast} {
		fail := func(detail string) error {
			return &Counterexample{Oracle: "snapshot", Params: p,
				Detail: fmt.Sprintf("engine %v, %d-rung ladder: %s", e, lad.Len(), detail), IR: res.Mod.String()}
		}
		full := interp.New(res.Mod, interp.Config{MaxInstrs: oracleBudget, Engine: e})
		defer full.Release()
		full.SetRuntime(res.Metas)
		fret, ferr := full.Run()
		fsum := full.Checksum(res.Mod.Globals...)

		fork := interp.New(res.Mod, interp.Config{MaxInstrs: oracleBudget, Engine: e})
		defer fork.Release()
		fork.SetRuntime(res.Metas)
		for i, snap := range lad.Snapshots() {
			if err := fork.Restore(snap); err != nil {
				return fail(fmt.Sprintf("restore rung %d: %v", i, err))
			}
			rret, rerr := fork.Resume()
			if (ferr == nil) != (rerr == nil) {
				return fail(fmt.Sprintf("rung %d errors: full=%v fork=%v", i, ferr, rerr))
			}
			if rret != fret || fork.Count != full.Count || fork.BaseCount != full.BaseCount {
				return fail(fmt.Sprintf("rung %d: ret %d/%d count (%d,%d)/(%d,%d)",
					i, rret, fret, fork.Count, fork.BaseCount, full.Count, full.BaseCount))
			}
			if rs := fork.Checksum(res.Mod.Globals...); rs != fsum {
				return fail(fmt.Sprintf("rung %d checksum: %#x vs %#x", i, rs, fsum))
			}
		}

		// Faulted forks: restore below the injection point, arm, resume;
		// the trajectory must match a Reset-and-replay trial exactly. Each
		// point takes a campaign strike and a masking-study strike, whose
		// detection can never be reached, so it settles at injection.
		for i := int64(1); i <= 3; i++ {
			at := i * total / 4
			snap := lad.Best(at)
			if snap == nil {
				continue
			}
			plans := []interp.FaultPlan{{
				Mode:          interp.CorruptOutput,
				InjectAt:      at,
				Bit:           uint8((uint64(at)*13 + p.Seed) % 48),
				DetectLatency: at % 5,
			}, {
				Mode:          interp.CorruptRegFile,
				InjectAt:      at,
				Bit:           uint8((uint64(at)*7 + p.Seed) % 32),
				TargetReg:     int((uint64(at) + p.Seed) % 64),
				DetectLatency: 1 << 60,
			}}
			for _, plan := range plans {
				full.Reset()
				full.InjectFault(plan)
				tret, terr := full.Run()
				if err := fork.Restore(snap); err != nil {
					return fail(fmt.Sprintf("restore for inject@%d mode %d: %v", at, plan.Mode, err))
				}
				fork.InjectFault(plan)
				rret, rerr := fork.Resume()
				if (terr == nil) != (rerr == nil) {
					return fail(fmt.Sprintf("inject@%d mode %d errors: full=%v fork=%v", at, plan.Mode, terr, rerr))
				}
				tr := full.FaultReport()
				if rr := fork.FaultReport(); tr != rr {
					return fail(fmt.Sprintf("inject@%d mode %d fault reports diverge:\nfull: %+v\nfork: %+v", at, plan.Mode, tr, rr))
				}
				ts := full.Checksum(res.Mod.Globals...)
				if terr == nil {
					// After a trap the state carries no promise beyond the
					// matching trap class.
					if rret != tret || fork.Count != full.Count {
						return fail(fmt.Sprintf("inject@%d mode %d: ret %d/%d count %d/%d",
							at, plan.Mode, rret, tret, fork.Count, full.Count))
					}
					if rs := fork.Checksum(res.Mod.Globals...); ts != rs {
						return fail(fmt.Sprintf("inject@%d mode %d checksum: full=%#x fork=%#x", at, plan.Mode, ts, rs))
					}
				}

				if err := fork.Restore(snap); err != nil {
					return fail(fmt.Sprintf("restore for armed inject@%d mode %d: %v", at, plan.Mode, err))
				}
				fork.InjectFault(plan)
				fork.ArmReconverge(lad)
				aret, aerr := fork.Resume()
				final, ok := fork.Reconverged()
				if !ok {
					continue
				}
				if ar := fork.FaultReport(); aerr != nil || terr != nil || ts != golden || aret != tret || final != full.Count || ar != tr {
					return fail(fmt.Sprintf("inject@%d mode %d early exit diverged from replay: err %v/%v golden-sum %v ret %d/%d count %d/%d\nfull: %+v\narmed: %+v",
						at, plan.Mode, aerr, terr, ts == golden, aret, tret, final, full.Count, tr, ar))
				}
			}
		}
	}
	return nil
}

// diffProfiles compares block and edge counts, treating absent and zero
// entries as identical.
func diffProfiles(a, b *interp.Profile) (string, bool) {
	blocks := map[*ir.Block]bool{}
	for blk := range a.Block {
		blocks[blk] = true
	}
	for blk := range b.Block {
		blocks[blk] = true
	}
	for blk := range blocks {
		if a.Block[blk] != b.Block[blk] {
			return fmt.Sprintf("block %s: got=%d ref=%d", blk, a.Block[blk], b.Block[blk]), false
		}
	}
	edges := map[*ir.Block]bool{}
	for blk := range a.Edge {
		edges[blk] = true
	}
	for blk := range b.Edge {
		edges[blk] = true
	}
	for blk := range edges {
		ae, be := a.Edge[blk], b.Edge[blk]
		n := len(ae)
		if len(be) > n {
			n = len(be)
		}
		for i := 0; i < n; i++ {
			var av, bv int64
			if i < len(ae) {
				av = ae[i]
			}
			if i < len(be) {
				bv = be[i]
			}
			if av != bv {
				return fmt.Sprintf("edge %s[%d]: got=%d ref=%d", blk, i, av, bv), false
			}
		}
	}
	return "", true
}

// CheckTransparency is the instrumentation-transparency property: on a
// fault-free run the instrumented program must be observationally
// identical to the uninstrumented one — same return value, same final
// memory and output. Base instruction counts are checked as a lower
// bound only: checkpoints of call-summarized stores materialize their
// address through a plain OpGlobal/OpFrame/OpConst instruction, which the
// runtime's base/checkpoint split deliberately books as base work.
func CheckTransparency(p Params) error {
	p = p.Normalized()
	mod := Generate(p)
	gm := interp.New(mod, interp.Config{MaxInstrs: oracleBudget})
	defer gm.Release()
	gret, err := gm.Run()
	if err != nil {
		return &Counterexample{Oracle: "generator", Params: p,
			Detail: fmt.Sprintf("fault-free run failed: %v", err), IR: mod.String()}
	}
	golden := stateOf(gm, gret)
	goldenCount := gm.Count

	cfg := core.DefaultConfig()
	cfg.Budget = 10
	cfg.Interp.MaxInstrs = oracleBudget
	if p.Profiled {
		cfg.AliasMode = alias.Profiled
	}
	res, err := core.Compile(mod, cfg)
	if err != nil {
		return &Counterexample{Oracle: "compile", Params: p, Detail: err.Error(), IR: mod.String()}
	}
	m := interp.New(res.Mod, interp.Config{MaxInstrs: oracleBudget})
	defer m.Release()
	m.SetRuntime(res.Metas)
	ret, err := m.Run()
	if err != nil {
		return &Counterexample{Oracle: "transparency", Params: p,
			Detail: fmt.Sprintf("instrumented run failed: %v", err), IR: res.Mod.String()}
	}
	if got := stateOf(m, ret); got != golden {
		return &Counterexample{Oracle: "transparency", Params: p,
			Detail: fmt.Sprintf("instrumented fault-free run diverged: got ret=%d sum=%#x, want ret=%d sum=%#x",
				got.ret, got.sum, golden.ret, golden.sum), IR: res.Mod.String()}
	}
	if m.BaseCount < goldenCount || m.Count < m.BaseCount {
		return &Counterexample{Oracle: "transparency", Params: p,
			Detail: fmt.Sprintf("instrumented counts implausible: base %d (uninstrumented %d), total %d",
				m.BaseCount, goldenCount, m.Count), IR: res.Mod.String()}
	}
	return nil
}
