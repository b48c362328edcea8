package interp_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/workload"
)

// TestEngineEquivalence is the guard for the default engine: for every
// workload, uninstrumented and Encore-instrumented, the closure-compiled
// engine must agree with the reference loop on every observable —
// return value, trap classification, instruction counters, output
// checksum, checkpoint accounting, and the execution profile.
func TestEngineEquivalence(t *testing.T) {
	for _, sp := range workload.All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			art := sp.Build()
			checkEquiv(t, "plain", art.Mod, nil, art.Outputs)

			iart := sp.Build()
			res, err := core.Compile(iart.Mod, core.DefaultConfig())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			checkEquiv(t, "instrumented", res.Mod, res.Metas, iart.Outputs)
		})
	}
}

// sentinels are the trap classes Run can surface; the engines word their
// trap messages differently, so equivalence is checked per class rather
// than on the error strings.
var sentinels = []error{
	interp.ErrOutOfBounds, interp.ErrBudget, interp.ErrCallDepth,
	interp.ErrStack, interp.ErrNoMain, interp.ErrExtern,
}

// engineRun is one engine's complete observable outcome.
type engineRun struct {
	engine interp.Engine
	m      *interp.Machine
	ret    int64
	err    error
}

func checkEquiv(t *testing.T, label string, mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global) {
	t.Helper()
	var runs []engineRun
	for _, e := range []interp.Engine{interp.EngineRef, interp.EngineFast} {
		m := interp.New(mod, interp.Config{Profile: true, Engine: e})
		defer m.Release()
		if metas != nil {
			m.SetRuntime(metas)
		}
		ret, err := m.Run()
		runs = append(runs, engineRun{engine: e, m: m, ret: ret, err: err})
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		diffRuns(t, label, ref, r, outs)
	}
}

// diffRuns compares one engine's run against the reference oracle's.
func diffRuns(t *testing.T, label string, ref, got engineRun, outs []*ir.Global) {
	t.Helper()
	label = label + "/" + got.engine.String()
	if (got.err == nil) != (ref.err == nil) {
		t.Fatalf("%s: error mismatch: got=%v ref=%v", label, got.err, ref.err)
	}
	for _, s := range sentinels {
		if errors.Is(got.err, s) != errors.Is(ref.err, s) {
			t.Fatalf("%s: trap class mismatch on %v: got=%v ref=%v", label, s, got.err, ref.err)
		}
	}
	if got.ret != ref.ret {
		t.Errorf("%s: return value: got=%d ref=%d", label, got.ret, ref.ret)
	}
	if got.m.Count != ref.m.Count || got.m.BaseCount != ref.m.BaseCount {
		t.Errorf("%s: counters: got=(%d,%d) ref=(%d,%d)", label,
			got.m.Count, got.m.BaseCount, ref.m.Count, ref.m.BaseCount)
	}
	if gc, rc := got.m.Checksum(outs...), ref.m.Checksum(outs...); gc != rc {
		t.Errorf("%s: checksum: got=%#x ref=%#x", label, gc, rc)
	}
	if got.m.CkptRegBytes != ref.m.CkptRegBytes || got.m.CkptMemBytes != ref.m.CkptMemBytes {
		t.Errorf("%s: ckpt bytes: got=(%d,%d) ref=(%d,%d)", label,
			got.m.CkptRegBytes, got.m.CkptMemBytes, ref.m.CkptRegBytes, ref.m.CkptMemBytes)
	}
	if got.m.RegionEntries != ref.m.RegionEntries {
		t.Errorf("%s: region entries: got=%d ref=%d", label, got.m.RegionEntries, ref.m.RegionEntries)
	}
	if got.m.MaxBufferBytes != ref.m.MaxBufferBytes {
		t.Errorf("%s: max buffer: got=%d ref=%d", label, got.m.MaxBufferBytes, ref.m.MaxBufferBytes)
	}

	diffProfile(t, label, got.m.Prof, ref.m.Prof)
}

// diffProfile compares a run's execution profile against the reference
// oracle's by Freq semantics: the default engine's merged dense counters
// may leave explicit zero entries the reference loop never creates, so
// zero-valued entries are identity. Unprofiled runs (snapshot restores)
// have no profile to compare.
func diffProfile(t *testing.T, label string, got, ref *interp.Profile) {
	t.Helper()
	if got == nil && ref == nil {
		return
	}
	for _, pair := range []struct{ a, b *interp.Profile }{{got, ref}, {ref, got}} {
		for b, c := range pair.a.Block {
			if c != 0 && pair.b.Block[b] != c {
				t.Errorf("%s: block freq %s: %d vs %d", label, b, c, pair.b.Block[b])
			}
		}
		for b, edges := range pair.a.Edge {
			for i, c := range edges {
				var other int64
				if o := pair.b.Edge[b]; i < len(o) {
					other = o[i]
				}
				if c != 0 && other != c {
					t.Errorf("%s: edge freq %s[%d]: %d vs %d", label, b, i, c, other)
				}
			}
		}
	}
}

// TestEngineEquivalenceFaulted extends the guard to fault trials on
// profiled machines: the default engine hands each stop segment to the
// reference loop and takes the run back once the fault settles. Across
// fault modes, injection points, and detection latencies, the result
// must match a run pinned to the reference loop on every observable
// except the handoff tallies, which a pinned run does not have. A run
// that traps promises no final state, but its trap class, counters and
// profile must still match: both engines count a block when its
// terminator retires, so the blocks a trap cuts short count in neither.
func TestEngineEquivalenceFaulted(t *testing.T) {
	for _, name := range snapshotWorkloads {
		sp, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		art := sp.Build()
		res, err := core.Compile(art.Mod, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		def := interp.New(res.Mod, interp.Config{Profile: true})
		defer def.Release()
		ref := interp.New(res.Mod, interp.Config{Profile: true, Engine: interp.EngineRef})
		defer ref.Release()
		def.SetRuntime(res.Metas)
		ref.SetRuntime(res.Metas)
		if _, err := def.Run(); err != nil {
			t.Fatal(err)
		}
		total := def.Count
		for i := int64(1); i <= 40; i++ {
			at := i * total / 41
			plan := interp.FaultPlan{
				Mode:          interp.FaultMode(i % 3),
				InjectAt:      at,
				Bit:           uint8((at*7 + 3) % 40),
				TargetReg:     int(i),
				DetectLatency: at % 50,
			}
			runs := make([]engineRun, 2)
			for j, m := range []*interp.Machine{ref, def} {
				m.Reset()
				m.InjectFault(plan)
				ret, err := m.Run()
				runs[j] = engineRun{engine: m.Cfg.Engine, m: m, ret: ret, err: err}
			}
			label := fmt.Sprintf("%s/inject@%d", name, at)
			if !reflect.DeepEqual(def.FaultReport(), ref.FaultReport()) {
				t.Errorf("%s: fault reports diverge:\ndefault: %+v\nref:     %+v", label, def.FaultReport(), ref.FaultReport())
			}
			if runs[0].err != nil || runs[1].err != nil {
				if errClass(runs[0].err) != errClass(runs[1].err) || def.Count != ref.Count || def.BaseCount != ref.BaseCount {
					t.Errorf("%s: trapped runs diverge: %v/%v count (%d,%d)/(%d,%d)", label,
						runs[1].err, runs[0].err, def.Count, def.BaseCount, ref.Count, ref.BaseCount)
				}
				diffProfile(t, label+"/trapped", def.Prof, ref.Prof)
				continue
			}
			diffRuns(t, label, runs[0], runs[1], art.Outputs)
		}
	}
}
