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
			// plus the serialized records and final stats snapshot.
			run := func(mut func(*sfi.CampaignConfig)) (*sfi.CampaignResult, []byte, []byte) {
				t.Helper()
				cfg := base
				cfg.Ledger = true
				est := stats.New()
				cfg.Stats = est
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

			ref, refRaw, refSnap := run(nil)

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
				camp, raw, snap := run(v.mut)
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

// TestCheckpointValidation covers the config rejection paths: negative
// counts and ladders denser than the golden run's instruction stream.
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

	_, err = sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: 5, Seed: 1, Checkpoints: 1 << 40,
	})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("oversized checkpoints: got %v, want an exceeds-golden-run error", err)
	}
}
