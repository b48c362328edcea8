package interp_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/workload"
)

// snapshotWorkloads keeps the restore-equivalence sweep affordable; the
// progen fuzz oracle covers generated programs beyond these.
var snapshotWorkloads = []string{"rawcaudio", "175.vpr", "g721encode"}

// TestSnapshotRestoreEquivalence is the fork-from-snapshot oracle on real
// workloads: a ladder captured once on the golden run, restored onto a
// fresh machine of each engine, must resume into exactly the observable
// outcome of running that engine from scratch — return value, counters,
// checksum, and checkpoint accounting. It covers both capture passes:
// RunWithSnapshots at LadderRungs' spacing, and the one-pass RunLadder,
// whose end state must also be the plain golden run's and whose rungs
// are partly captured into the buffers of dropped ones. Capture and
// restore run on unprofiled machines: snapshots carry no profile.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, name := range snapshotWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			sp, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			art := sp.Build()
			res, err := core.Compile(art.Mod, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}

			capm := interp.New(res.Mod, interp.Config{})
			defer capm.Release()
			capm.SetRuntime(res.Metas)
			gret, gerr := capm.Run()
			if gerr != nil {
				t.Fatal(gerr)
			}
			total := capm.Count
			goldenMem := slices.Clone(capm.Mem)
			_, lad, err := capm.RunWithSnapshots(interp.LadderRungs(4, total))
			if err != nil {
				t.Fatal(err)
			}
			if lad.Len() == 0 {
				t.Fatalf("no snapshots captured for a %d-instruction run", total)
			}

			onem := interp.New(res.Mod, interp.Config{})
			defer onem.Release()
			onem.SetRuntime(res.Metas)
			oret, one, oerr := onem.RunLadder(4, interp.LadderFloor)
			if oerr != nil {
				t.Fatal(oerr)
			}
			diffRuns(t, "one-pass ladder", engineRun{engine: interp.EngineFast, m: capm, ret: gret},
				engineRun{engine: interp.EngineFast, m: onem, ret: oret}, art.Outputs)
			if !slices.Equal(onem.Mem, goldenMem) || one.GoldenInstrs() != total {
				t.Errorf("one-pass ladder: end memory or length (%d, golden %d) differs from the golden run", one.GoldenInstrs(), total)
			}
			if one.Len() < 4 || one.Len() > 7 || one.Captures() <= 8 {
				t.Fatalf("one-pass ladder: %d rungs, %d captures; want 4..7 rungs after at least one doubling", one.Len(), one.Captures())
			}

			for _, e := range []interp.Engine{interp.EngineRef, interp.EngineFast} {
				full := interp.New(res.Mod, interp.Config{Engine: e})
				defer full.Release()
				full.SetRuntime(res.Metas)
				fret, ferr := full.Run()
				ref := engineRun{engine: e, m: full, ret: fret, err: ferr}

				m := interp.New(res.Mod, interp.Config{Engine: e})
				defer m.Release()
				m.SetRuntime(res.Metas)
				for _, l := range []*interp.Ladder{lad, one} {
					for i, snap := range l.Snapshots() {
						if err := m.Restore(snap); err != nil {
							t.Fatalf("restore snap %d on %s: %v", i, e, err)
						}
						rret, rerr := m.Resume()
						diffRuns(t, "restored", ref, engineRun{engine: e, m: m, ret: rret, err: rerr}, art.Outputs)
					}
				}
			}
		})
	}
}

// TestSnapshotRestoreFaulted checks the trial pattern itself: restoring
// the deepest snapshot below InjectAt, arming the fault, and resuming
// must produce the same fault report, outcome, and final state as the
// Reset-and-replay-everything trial — on every engine, across fault
// modes, including rollback bookkeeping (SameInstance, RollbackDistance)
// that depends on snapshot-exact instance sequencing. Each fork then runs
// again with early exit armed against the golden ladder: when it
// reconverges, its projected count, fault report and return value must
// equal the replay trial's, and that trial must have completed with the
// golden outputs. Each injection point also takes a never-detected
// register-file strike, the masking study's trial.
func TestSnapshotRestoreFaulted(t *testing.T) {
	var reconverged [2]int // per plan kind: campaign-style, masking-style
	defer func() {
		if !t.Failed() && (reconverged[0] == 0 || reconverged[1] == 0) {
			t.Errorf("armed forks reconverged %v times per plan kind: the early-exit leg is vacuous", reconverged)
		}
	}()
	for _, name := range snapshotWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			sp, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			art := sp.Build()
			res, err := core.Compile(art.Mod, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}

			capm := interp.New(res.Mod, interp.Config{})
			defer capm.Release()
			capm.SetRuntime(res.Metas)
			if _, err := capm.Run(); err != nil {
				t.Fatal(err)
			}
			total, golden := capm.Count, capm.Checksum(art.Outputs...)
			_, lad, err := capm.RunWithSnapshots(interp.LadderRungs(4, total))
			if err != nil {
				t.Fatal(err)
			}

			for _, e := range []interp.Engine{interp.EngineRef, interp.EngineFast} {
				full := interp.New(res.Mod, interp.Config{Engine: e})
				defer full.Release()
				full.SetRuntime(res.Metas)
				fork := interp.New(res.Mod, interp.Config{Engine: e})
				defer fork.Release()
				fork.SetRuntime(res.Metas)

				for i := int64(1); i <= 6; i++ {
					at := i * total / 7
					plans := []interp.FaultPlan{{
						Mode:          interp.FaultMode(i % 3),
						InjectAt:      at,
						Bit:           uint8((at*11 + 5) % 48),
						TargetReg:     int(i),
						DetectLatency: at % 9,
					}, {
						// The masking study's strike: its detection can
						// never be reached, so it settles at injection.
						Mode:          interp.CorruptRegFile,
						InjectAt:      at,
						Bit:           uint8((at*7 + 3) % 32),
						TargetReg:     int(at % 64),
						DetectLatency: 1 << 60,
					}}
					for k, plan := range plans {
						full.Reset()
						full.InjectFault(plan)
						fret, ferr := full.Run()
						frep, fsum := full.FaultReport(), full.Checksum(art.Outputs...)

						snap := lad.Best(at)
						if snap == nil {
							continue // inject point before the first rung: no fork possible
						}
						if err := fork.Restore(snap); err != nil {
							t.Fatalf("restore for inject@%d on %s: %v", at, e, err)
						}
						fork.InjectFault(plan)
						rret, rerr := fork.Resume()
						rrep, rsum := fork.FaultReport(), fork.Checksum(art.Outputs...)

						if (ferr == nil) != (rerr == nil) || !errors.Is(rerr, errClass(ferr)) && ferr != nil {
							t.Errorf("%s inject@%d: error mismatch: full=%v fork=%v", e, at, ferr, rerr)
						}
						if fret != rret || fsum != rsum || full.Count != fork.Count {
							t.Errorf("%s inject@%d: outcome mismatch: ret %d/%d sum %#x/%#x count %d/%d",
								e, at, fret, rret, fsum, rsum, full.Count, fork.Count)
						}
						if !reflect.DeepEqual(frep, rrep) {
							t.Errorf("%s inject@%d: fault report mismatch:\nfull: %+v\nfork: %+v", e, at, frep, rrep)
						}

						if err := fork.Restore(snap); err != nil {
							t.Fatalf("restore for armed inject@%d on %s: %v", at, e, err)
						}
						fork.InjectFault(plan)
						fork.ArmReconverge(lad)
						aret, aerr := fork.Resume()
						final, ok := fork.Reconverged()
						if !ok {
							continue
						}
						reconverged[k]++
						arep := fork.FaultReport()
						if aerr != nil || ferr != nil || fsum != golden || aret != fret || final != full.Count || !reflect.DeepEqual(frep, arep) {
							t.Errorf("%s inject@%d: early exit diverged from replay: err %v/%v golden-sum %v ret %d/%d count %d/%d\nfull: %+v\narmed: %+v",
								e, at, aerr, ferr, fsum == golden, aret, fret, final, full.Count, frep, arep)
						}
					}
				}
			}
		})
	}
}

// errClass maps an error to its sentinel trap class for errors.Is
// comparisons (nil-safe).
func errClass(err error) error {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	if errors.Is(err, interp.ErrDetectedUnrecoverable) {
		return interp.ErrDetectedUnrecoverable
	}
	return err
}
