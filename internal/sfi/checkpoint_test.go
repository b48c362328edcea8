// Checkpoint-ladder invariance tests live in an external test package:
// they drive campaigns through the stats estimator, which imports
// internal/sfi, so an in-package test would create an import cycle.
package sfi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// checkpointWorkloads spans the three workload shapes the interp-level
// restore oracle also sweeps.
var checkpointWorkloads = []string{"rawcaudio", "175.vpr", "g721encode"}

// wantLadder replays RunLadder's schedule from interp.LadderFloor for a
// golden run of total instructions: the rungs held at the end and the
// snapshots taken. Rung i is taken at i·stride when i·stride < total, and
// holding 2k rungs halves them and doubles the stride.
func wantLadder(k int, total int64) (rungs, captures int64) {
	stride := int64(interp.LadderFloor)
	for at := stride; at < total; at = (rungs + 1) * stride {
		rungs++
		captures++
		if rungs == int64(2*k) {
			rungs, stride = int64(k), 2*stride
		}
	}
	return rungs, captures
}

// campaignLog is a StatsSink that keeps one campaign's header and trial
// records, in the order it receives them.
type campaignLog struct {
	meta sfi.CampaignMeta
	recs []sfi.TrialRecord
}

func (l *campaignLog) ObserveCampaign(meta sfi.CampaignMeta) { l.meta = meta }
func (l *campaignLog) ObserveTrial(rec sfi.TrialRecord)      { l.recs = append(l.recs, rec) }

// replayOne replays a one-campaign ledger into a campaignLog.
func replayOne(t *testing.T, ledger []byte) *campaignLog {
	t.Helper()
	var logs []*campaignLog
	if err := sfi.ReplayLedger(bytes.NewReader(ledger), func() sfi.StatsSink {
		l := &campaignLog{}
		logs = append(logs, l)
		return l
	}); err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 {
		t.Fatalf("ledger holds %d campaigns, want 1", len(logs))
	}
	return logs[0]
}

// traced runs a campaign with a JSONL trace attached and returns the
// result, the trace bytes, and the trace replayed.
func traced(t *testing.T, mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global, cfg sfi.CampaignConfig) (*sfi.CampaignResult, []byte, *campaignLog) {
	t.Helper()
	return tracedBy(t, func(cfg sfi.CampaignConfig) (*sfi.CampaignResult, error) {
		return sfi.RunCampaign(mod, metas, outs, cfg)
	}, cfg)
}

// tracedBy is traced for any campaign runner: RunCampaign, or Run on a
// prepared Golden.
func tracedBy(t *testing.T, run func(sfi.CampaignConfig) (*sfi.CampaignResult, error), cfg sfi.CampaignConfig) (*sfi.CampaignResult, []byte, *campaignLog) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = obs.NewJSONLSink(&buf)
	camp, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Err(); err != nil {
		t.Fatal(err)
	}
	return camp, buf.Bytes(), replayOne(t, buf.Bytes())
}

// ladderCounters reads a campaign registry's golden-pass counters.
func ladderCounters(reg *obs.Registry) [2]int64 {
	return [2]int64{reg.Counter("sfi.ladder.rungs").Value(), reg.Counter("sfi.ladder.captures").Value()}
}

// TestCheckpointLedgerInvariant locks the tentpole guarantee of
// fork-from-snapshot trials: a campaign's outcome counters, trial
// ledger, and stats snapshot are byte-identical at any checkpoint
// count, worker count, engine, shard split, or adaptive schedule. The
// ladder is purely a throughput knob. The checkpoint counts cover the
// one-pass ladder's schedule: a target whose golden pass thins its
// ladder exactly once, and k = 1, which thins it at every rung after
// the first. Campaigns run on one prepared Golden per engine and
// checkpoint target match RunCampaign's for every shape, seed and
// adaptive schedule run on it.
func TestCheckpointLedgerInvariant(t *testing.T) {
	for _, name := range checkpointWorkloads {
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

			base := sfi.CampaignConfig{Trials: 60, Seed: 9, Dmax: 100, App: name}

			// runBy executes a traced campaign with an estimator through
			// runner (nil: RunCampaign) and returns the result, the trace
			// read back, the trace bytes, and the final stats snapshot;
			// the campaign's metrics land in *reg when reg is non-nil.
			runBy := func(runner func(sfi.CampaignConfig) (*sfi.CampaignResult, error), mut func(*sfi.CampaignConfig), reg **obs.Registry) (*sfi.CampaignResult, *campaignLog, []byte, []byte) {
				t.Helper()
				cfg := base
				est := stats.New()
				cfg.Stats = est
				if reg != nil {
					*reg = obs.NewRegistry()
					cfg.Obs = *reg
				}
				if mut != nil {
					mut(&cfg)
				}
				if runner == nil {
					runner = func(cfg sfi.CampaignConfig) (*sfi.CampaignResult, error) {
						return sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
					}
				}
				camp, raw, ledger := tracedBy(t, runner, cfg)
				snap, err := json.Marshal(est.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				return camp, ledger, raw, snap
			}
			run := func(mut func(*sfi.CampaignConfig), reg **obs.Registry) (*sfi.CampaignResult, *campaignLog, []byte, []byte) {
				t.Helper()
				return runBy(nil, mut, reg)
			}

			ref, refLedger, refRaw, refSnap := run(nil, nil)
			total := refLedger.meta.GoldenInstrs
			// kOne puts the run between 2·kOne and 4·kOne floors long, so
			// the golden pass doubles its stride exactly once.
			kOne := int(total/(3*interp.LadderFloor)) + 1
			if r, c := wantLadder(kOne, total); c-r != int64(kOne) {
				t.Fatalf("k=%d on a %d-instruction run drops %d rungs, want one doubling", kOne, total, c-r)
			}

			variants := []struct {
				label string
				ck    int
				mut   func(*sfi.CampaignConfig)
			}{
				{"ckpt1", 1, nil},
				{"ckpt4", 4, nil},
				{fmt.Sprintf("ckpt%d", kOne), kOne, nil},
				{"ckpt16", 16, nil},
				{"ckpt16/workers1", 16, func(c *sfi.CampaignConfig) { c.Workers = 1 }},
				{"ckpt16/ref", 16, func(c *sfi.CampaignConfig) { c.Engine = interp.EngineRef }},
			}
			for _, v := range variants {
				var reg *obs.Registry
				camp, _, raw, snap := run(func(c *sfi.CampaignConfig) {
					c.Checkpoints = v.ck
					if v.mut != nil {
						v.mut(c)
					}
				}, &reg)
				if r, c := wantLadder(v.ck, total); ladderCounters(reg) != [2]int64{r, c} {
					t.Errorf("%s: ladder rungs/captures %v, want %v", v.label, ladderCounters(reg), [2]int64{r, c})
				}
				if camp.Counts != ref.Counts || camp.SameInstance != ref.SameInstance || camp.Executed != ref.Executed {
					t.Errorf("%s: counters diverged: %v/%d vs %v/%d",
						v.label, camp.Counts, camp.SameInstance, ref.Counts, ref.SameInstance)
				}
				if !bytes.Equal(raw, refRaw) {
					t.Errorf("%s: ledger diverged from checkpoints=0 baseline", v.label)
				}
				if !bytes.Equal(snap, refSnap) {
					t.Errorf("%s: stats snapshot diverged from checkpoints=0 baseline", v.label)
				}
				// Not vacuous: the default engine's trials end early at a
				// golden rung, while runs pinned to the reference loop
				// never hand back and so always run to the end.
				n := reg.Counter("sfi.reconverge.count").Value()
				if pinned := v.label == "ckpt16/ref"; pinned != (n == 0) {
					t.Errorf("%s: sfi.reconverge.count = %d", v.label, n)
				}
			}

			// Sharded campaigns at ckpt16 must concatenate to exactly the
			// baseline record stream.
			var merged []sfi.TrialRecord
			for i := 1; i <= 3; i++ {
				cfg := base
				cfg.Checkpoints = 16
				cfg.Shard = &sfi.ShardRange{Index: i, Count: 3}
				_, _, ledger := traced(t, res.Mod, res.Metas, art.Outputs, cfg)
				merged = append(merged, ledger.recs...)
			}
			mergedRaw, err := json.Marshal(merged)
			if err != nil {
				t.Fatal(err)
			}
			wantRaw, err := json.Marshal(refLedger.recs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mergedRaw, wantRaw) {
				t.Error("sharded ckpt16 records, concatenated, diverged from the unsharded checkpoints=0 ledger")
			}

			// Adaptive stopping must make identical round decisions with
			// and without the ladder.
			adaptive := func(ck int) (*sfi.CampaignResult, []byte) {
				cfg := base
				cfg.Checkpoints = ck
				cfg.Stop = &sfi.Stopper{TargetCI: 0.12}
				camp, raw, _ := traced(t, res.Mod, res.Metas, art.Outputs, cfg)
				return camp, raw
			}
			a0, a0raw := adaptive(0)
			a16, a16raw := adaptive(16)
			if a0.Executed != a16.Executed || a0.Counts != a16.Counts || !bytes.Equal(a0raw, a16raw) {
				t.Errorf("adaptive campaign diverged across checkpoints: executed %d/%d counts %v/%v",
					a0.Executed, a16.Executed, a0.Counts, a16.Counts)
			}

			// Prepared then run: one Golden per engine and checkpoint
			// target serves every shape in turn, two adaptive campaigns
			// with different seeds among them (the second reuses the
			// region map the first recorded), and each writes exactly
			// RunCampaign's ledger and stats. The 40-campaign matrix runs
			// on the shortest golden run of the three, which keeps it
			// cheap under -race.
			if name != "175.vpr" {
				return
			}
			shapes := []struct {
				label string
				mut   func(*sfi.CampaignConfig)
			}{
				{"workers1", func(c *sfi.CampaignConfig) { c.Workers = 1 }},
				{"workers4", func(c *sfi.CampaignConfig) { c.Workers = 4 }},
				{"shard2/3", func(c *sfi.CampaignConfig) { c.Shard = &sfi.ShardRange{Index: 2, Count: 3} }},
				{"adaptive", func(c *sfi.CampaignConfig) { c.Stop = &sfi.Stopper{TargetCI: 0.3, Round: 8} }},
				{"adaptive/seed10", func(c *sfi.CampaignConfig) { c.Stop, c.Seed = &sfi.Stopper{TargetCI: 0.3, Round: 8}, 10 }},
			}
			for _, eng := range []interp.Engine{interp.EngineFast, interp.EngineRef} {
				for _, ck := range []int{0, 16} {
					g, err := sfi.Prepare(res.Mod, res.Metas, art.Outputs, eng, ck, obs.NewRegistry())
					if err != nil {
						t.Fatal(err)
					}
					for _, sh := range shapes {
						mut := func(c *sfi.CampaignConfig) {
							c.Engine, c.Checkpoints = eng, ck
							sh.mut(c)
						}
						want, _, wantRaw, wantSnap := run(mut, nil)
						got, _, raw, snap := runBy(g.Run, mut, nil)
						label := fmt.Sprintf("prepared %s/ckpt%d/%s", eng, ck, sh.label)
						if *got != *want {
							t.Errorf("%s: result %+v, RunCampaign %+v", label, got, want)
						}
						if strings.HasPrefix(sh.label, "adaptive") && got.Skipped == 0 {
							t.Errorf("%s: adaptive stopping skipped nothing", label)
						}
						if !bytes.Equal(raw, wantRaw) {
							t.Errorf("%s: ledger diverged from RunCampaign's", label)
						}
						if !bytes.Equal(snap, wantSnap) {
							t.Errorf("%s: stats snapshot diverged from RunCampaign's", label)
						}
					}
				}
			}
		})
	}
}

// TestCheckpointValidation covers the config rejection paths: a negative
// checkpoint count, to RunCampaign and to Prepare, and a Run on a Golden
// whose engine or checkpoint target the config does not match.
func TestCheckpointValidation(t *testing.T) {
	sp, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	_, err = sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: 5, Seed: 1, Checkpoints: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("negative checkpoints: got %v, want a checkpoint error", err)
	}
	if _, err := sfi.Prepare(res.Mod, res.Metas, art.Outputs, interp.EngineFast, -1, obs.NewRegistry()); err == nil ||
		!strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("Prepare with negative checkpoints: got %v, want a checkpoint error", err)
	}

	g, err := sfi.Prepare(res.Mod, res.Metas, art.Outputs, interp.EngineFast, sfi.DefaultCheckpoints, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg  sfi.CampaignConfig
		want string
	}{
		{sfi.CampaignConfig{Engine: interp.EngineRef, Checkpoints: sfi.DefaultCheckpoints}, "engine"},
		{sfi.CampaignConfig{Checkpoints: 0}, "checkpoint target"},
		{sfi.CampaignConfig{Checkpoints: 4}, "checkpoint target"},
		{sfi.CampaignConfig{Checkpoints: sfi.DefaultCheckpoints, Dmax: -1}, "Dmax"},
	} {
		c.cfg.Trials, c.cfg.Obs = 5, obs.NewRegistry()
		if _, err := g.Run(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(engine %s, checkpoints %d, dmax %d): got %v, want a %s error",
				c.cfg.Engine, c.cfg.Checkpoints, c.cfg.Dmax, err, c.want)
		}
	}
	if _, err := g.Run(sfi.CampaignConfig{Trials: 5, Checkpoints: sfi.DefaultCheckpoints, Obs: obs.NewRegistry()}); err != nil {
		t.Errorf("Run with the prepared engine and target: %v", err)
	}
}

// TestCheckpointsBeyondShortRun runs short programs at the edges of the
// golden pass's schedule: a 6-instruction module, which gets no rung at
// any target, and a counting loop of about five ladder floors, which
// gets one rung per floor at a target of 3, thins its ladder once at 2
// and twice at 1. Every campaign's ledger is byte-identical to the
// ladder-free run's, and the ladder counters match the schedule.
func TestCheckpointsBeyondShortRun(t *testing.T) {
	tiny := ir.NewModule("tiny")
	out := tiny.NewGlobal("out", 1)
	f := tiny.NewFunc("main", 0)
	b := f.NewBlock("entry")
	a, v := f.NewReg(), f.NewReg()
	b.Const(v, 41)
	b.AddI(v, v, 1)
	b.GlobalAddr(a, out)
	b.Store(a, 0, v)
	b.Ret(v)
	f.Recompute()

	loop, sum := countingLoop(3500)
	for _, c := range []struct {
		mod     *ir.Module
		out     *ir.Global
		targets []int
		rungs   []int64 // wanted rungs held, per target
	}{
		{tiny, out, []int{1, sfi.DefaultCheckpoints}, []int64{0, 0}},
		{loop, sum, []int{1, 2, 3, sfi.DefaultCheckpoints}, []int64{1, 2, 5, 5}},
	} {
		res, err := core.Compile(c.mod, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ledger := func(ck int) ([]byte, int64, [2]int64) {
			t.Helper()
			reg := obs.NewRegistry()
			_, raw, ledger := traced(t, res.Mod, res.Metas, []*ir.Global{c.out}, sfi.CampaignConfig{
				Trials: 40, Seed: 5, Dmax: 4, Checkpoints: ck, Obs: reg,
			})
			return raw, ledger.meta.GoldenInstrs, ladderCounters(reg)
		}
		raw0, total, _ := ledger(0)
		for i, ck := range c.targets {
			raw, _, got := ledger(ck)
			if !bytes.Equal(raw0, raw) {
				t.Errorf("%s: ledger at %d checkpoints diverged from checkpoints=0 on a %d-instruction run",
					c.mod.Name, ck, total)
			}
			if r, cp := wantLadder(ck, total); got != [2]int64{r, cp} || r != c.rungs[i] {
				t.Errorf("%s: %d checkpoints on a %d-instruction run: rungs/captures %v, schedule %v, want %d rungs",
					c.mod.Name, ck, total, got, [2]int64{r, cp}, c.rungs[i])
			}
		}
	}
}

// countingLoop returns a module that sums 0..n-1 into its output global,
// about 6·n dynamic instructions before instrumentation.
func countingLoop(n int64) (*ir.Module, *ir.Global) {
	mod := ir.NewModule("loop")
	out := mod.NewGlobal("out", 1)
	f := mod.NewFunc("main", 0)
	entry, head, body, exit := f.NewBlock("entry"), f.NewBlock("head"), f.NewBlock("body"), f.NewBlock("exit")
	i, acc, bound, cond, a := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Const(i, 0)
	entry.Const(acc, 0)
	entry.Jmp(head)
	head.Const(bound, n)
	head.Bin(ir.OpLt, cond, i, bound)
	head.Br(cond, body, exit)
	body.Add(acc, acc, i)
	body.AddI(i, i, 1)
	body.Jmp(head)
	exit.GlobalAddr(a, out)
	exit.Store(a, 0, acc)
	exit.Ret(acc)
	f.Recompute()
	return mod, out
}

// TestReconvergeCounters pins the early-exit counters as deterministic
// campaign quantities: the same at 1 and 4 workers, and the sum of a
// 3-shard split's counts.
func TestReconvergeCounters(t *testing.T) {
	sp, err := workload.ByName("175.vpr")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := sfi.CampaignConfig{Trials: 90, Seed: 4, Dmax: 100, Checkpoints: sfi.DefaultCheckpoints}
	counts := func(cfg sfi.CampaignConfig) [2]int64 {
		t.Helper()
		reg := obs.NewRegistry()
		cfg.Obs = reg
		if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg); err != nil {
			t.Fatal(err)
		}
		return [2]int64{reg.Counter("sfi.reconverge.count").Value(), reg.Counter("sfi.reconverge.saved_instrs").Value()}
	}

	one := base
	one.Workers = 1
	want := counts(one)
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("no trial reconverged: count %d, saved %d", want[0], want[1])
	}
	four := base
	four.Workers = 4
	if got := counts(four); got != want {
		t.Errorf("4 workers: count/saved %v, 1 worker %v", got, want)
	}

	var sum [2]int64
	for i := 1; i <= 3; i++ {
		cfg := base
		cfg.Shard = &sfi.ShardRange{Index: i, Count: 3}
		c := counts(cfg)
		sum[0] += c[0]
		sum[1] += c[1]
	}
	if sum != want {
		t.Errorf("3 shards sum to count/saved %v, single run %v", sum, want)
	}
}

// TestLadderCounters pins the golden pass's counters as deterministic
// campaign quantities: sfi.ladder.rungs and sfi.ladder.captures are the
// same at 1 and 4 workers and on both engines, and match the schedule.
func TestLadderCounters(t *testing.T) {
	sp, err := workload.ByName("g721encode")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want [2]int64
	for i, cfg := range []sfi.CampaignConfig{
		{Workers: 1},
		{Workers: 4},
		{Workers: 1, Engine: interp.EngineRef},
		{Workers: 4, Engine: interp.EngineRef},
	} {
		reg := obs.NewRegistry()
		cfg.Trials, cfg.Seed, cfg.Dmax, cfg.Checkpoints, cfg.Obs = 20, 2, 100, sfi.DefaultCheckpoints, reg
		_, _, ledger := traced(t, res.Mod, res.Metas, art.Outputs, cfg)
		got := ladderCounters(reg)
		if i == 0 {
			r, c := wantLadder(sfi.DefaultCheckpoints, ledger.meta.GoldenInstrs)
			if want = [2]int64{r, c}; got != want || r < sfi.DefaultCheckpoints || c == r {
				t.Fatalf("rungs/captures %v, schedule %v: want at least %d rungs after a doubling",
					got, want, sfi.DefaultCheckpoints)
			}
		}
		if got != want {
			t.Errorf("workers %d engine %v: rungs/captures %v, want %v", cfg.Workers, cfg.Engine, got, want)
		}
	}
}
