// Checkpoint-ladder invariance tests live in an external test package:
// they drive campaigns through the stats estimator, and internal/stats
// imports internal/sfi, so an in-package test would create an import
// cycle.
package sfi_test

import (
	"bytes"
	"encoding/json"
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

// TestCheckpointLedgerInvariant locks the tentpole guarantee of
// fork-from-snapshot trials: a campaign's outcome counters, trial
// ledger, and stats snapshot are byte-identical at any checkpoint
// count, worker count, engine, shard split, or adaptive schedule. The
// ladder is purely a throughput knob.
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

			// run executes a ledger+stats campaign and returns the result
			// plus the serialized records and final stats snapshot; the
			// campaign's metrics land in *reg when reg is non-nil.
			run := func(mut func(*sfi.CampaignConfig), reg **obs.Registry) (*sfi.CampaignResult, []byte, []byte) {
				t.Helper()
				cfg := base
				cfg.Ledger = true
				est := stats.New()
				cfg.Stats = est
				if reg != nil {
					*reg = obs.NewRegistry()
					cfg.Obs = *reg
				}
				if mut != nil {
					mut(&cfg)
				}
				camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(camp.Records)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := json.Marshal(est.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				return camp, raw, snap
			}

			ref, refRaw, refSnap := run(nil, nil)

			variants := []struct {
				label string
				mut   func(*sfi.CampaignConfig)
			}{
				{"ckpt4", func(c *sfi.CampaignConfig) { c.Checkpoints = 4 }},
				{"ckpt16", func(c *sfi.CampaignConfig) { c.Checkpoints = 16 }},
				{"ckpt16/workers1", func(c *sfi.CampaignConfig) { c.Checkpoints = 16; c.Workers = 1 }},
				{"ckpt16/ref", func(c *sfi.CampaignConfig) { c.Checkpoints = 16; c.Engine = interp.EngineRef }},
			}
			for _, v := range variants {
				var reg *obs.Registry
				camp, raw, snap := run(v.mut, &reg)
				if camp.Counts != ref.Counts || camp.SameInstance != ref.SameInstance || camp.Executed != ref.Executed {
					t.Errorf("%s: counters diverged: %v/%d vs %v/%d",
						v.label, camp.Counts, camp.SameInstance, ref.Counts, ref.SameInstance)
				}
				if !bytes.Equal(raw, refRaw) {
					t.Errorf("%s: ledger records diverged from checkpoints=0 baseline", v.label)
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
			shards, err := sfi.Partition(base.Seed, base.Trials, 3)
			if err != nil {
				t.Fatal(err)
			}
			var merged []sfi.TrialRecord
			for i := range shards {
				cfg := base
				cfg.Ledger = true
				cfg.Checkpoints = 16
				cfg.Shard = &shards[i]
				camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				merged = append(merged, camp.Records...)
			}
			mergedRaw, err := json.Marshal(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mergedRaw, refRaw) {
				t.Error("sharded ckpt16 records, concatenated, diverged from the unsharded checkpoints=0 ledger")
			}

			// Adaptive stopping must make identical round decisions with
			// and without the ladder.
			adaptive := func(ck int) (*sfi.CampaignResult, []byte) {
				cfg := base
				cfg.Ledger = true
				cfg.Checkpoints = ck
				cfg.Stop = &sfi.Stopper{TargetCI: 0.12}
				camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(camp.Records)
				if err != nil {
					t.Fatal(err)
				}
				return camp, raw
			}
			a0, a0raw := adaptive(0)
			a16, a16raw := adaptive(16)
			if a0.Executed != a16.Executed || a0.Counts != a16.Counts || !bytes.Equal(a0raw, a16raw) {
				t.Errorf("adaptive campaign diverged across checkpoints: executed %d/%d counts %v/%v",
					a0.Executed, a16.Executed, a0.Counts, a16.Counts)
			}
		})
	}
}

// TestCheckpointValidation covers the config rejection path: a negative
// checkpoint count.
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
}

// TestCheckpointsBeyondShortRun runs a program shorter than the ladder
// it asks for: the colliding rungs drop out, and the campaign's ledger
// is byte-identical to the ladder-free run's instead of failing.
func TestCheckpointsBeyondShortRun(t *testing.T) {
	mod := ir.NewModule("tiny")
	out := mod.NewGlobal("out", 1)
	f := mod.NewFunc("main", 0)
	b := f.NewBlock("entry")
	a, v := f.NewReg(), f.NewReg()
	b.Const(v, 41)
	b.AddI(v, v, 1)
	b.GlobalAddr(a, out)
	b.Store(a, 0, v)
	b.Ret(v)
	f.Recompute()
	res, err := core.Compile(mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	ledger := func(ck int) ([]byte, int64) {
		t.Helper()
		camp, err := sfi.RunCampaign(res.Mod, res.Metas, []*ir.Global{out}, sfi.CampaignConfig{
			Trials: 40, Seed: 5, Dmax: 4, Ledger: true, Checkpoints: ck,
		})
		if err != nil {
			t.Fatalf("checkpoints %d: %v", ck, err)
		}
		raw, err := json.Marshal(camp.Records)
		if err != nil {
			t.Fatal(err)
		}
		return raw, camp.Meta.GoldenInstrs
	}
	raw0, total := ledger(0)
	if total >= sfi.DefaultCheckpoints {
		t.Fatalf("golden run is %d instructions; the test needs fewer than %d", total, sfi.DefaultCheckpoints)
	}
	if raw16, _ := ledger(sfi.DefaultCheckpoints); !bytes.Equal(raw0, raw16) {
		t.Errorf("ledger at %d checkpoints diverged from checkpoints=0 on a %d-instruction run",
			sfi.DefaultCheckpoints, total)
	}
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

	shards, err := sfi.Partition(base.Seed, base.Trials, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum [2]int64
	for i := range shards {
		cfg := base
		cfg.Shard = &shards[i]
		c := counts(cfg)
		sum[0] += c[0]
		sum[1] += c[1]
	}
	if sum != want {
		t.Errorf("3 shards sum to count/saved %v, single run %v", sum, want)
	}
}
