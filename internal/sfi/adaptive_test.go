package sfi

import (
	"reflect"
	"testing"

	"encore/internal/ci"
	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/workload"
)

// regionTable mirrors serve.RegionTable (which this package cannot
// import without a cycle): the compile result's coverage rows as ledger
// prediction rows, content hashes included.
func regionTable(res *core.Result, dmax int64) []RegionInfo {
	var out []RegionInfo
	for _, rc := range res.RegionCoverages(float64(dmax)) {
		out = append(out, RegionInfo{
			ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
			Selected: rc.Selected, DynFrac: rc.DynFrac,
			InstanceLen: rc.InstanceLen, Alpha: rc.Alpha, Hash: rc.Hash,
		})
	}
	return out
}

func compileApp(t *testing.T, name string) (*core.Result, *workload.Artifact) {
	t.Helper()
	sp, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res, art
}

// TestAdaptiveOffUnchanged: with Stop nil the campaign must behave
// exactly as before the adaptive machinery existed — and an adaptive
// run whose target is unreachably tight must execute the full trial
// space and reproduce the non-adaptive records verbatim (stopping can
// only ever elide trials, never change one).
func TestAdaptiveOffUnchanged(t *testing.T) {
	res, art := compileApp(t, "g721encode")
	base := CampaignConfig{Trials: 120, Seed: 7, Dmax: 100}
	off, offRecs := collect(t, res, art.Outputs, base)
	if off.Skipped != 0 || off.Mispredicted != 0 {
		t.Errorf("non-adaptive campaign reports adaptive counters: %+v", off)
	}
	cfg := base
	cfg.Stop = &Stopper{TargetCI: 1e-9} // unreachable at 120 trials
	tight, tightRecs := collect(t, res, art.Outputs, cfg)
	if tight.Executed != base.Trials || tight.Skipped != 0 {
		t.Fatalf("unreachable target still skipped trials: executed %d skipped %d", tight.Executed, tight.Skipped)
	}
	if !reflect.DeepEqual(offRecs, tightRecs) {
		t.Error("adaptive run with unreachable target diverged from the non-adaptive records")
	}
	if off.Counts != tight.Counts || off.SameInstance != tight.SameInstance {
		t.Errorf("outcome counts diverged: %v vs %v", off.Counts, tight.Counts)
	}
}

// TestAdaptiveDeterministic: the executed subset is a function of
// (seed, policy) only, so ledgers must be identical across worker
// counts and engines.
func TestAdaptiveDeterministic(t *testing.T) {
	res, art := compileApp(t, "g721encode")
	run := func(workers int, eng interp.Engine) (*CampaignResult, []TrialRecord) {
		return collect(t, res, art.Outputs, CampaignConfig{
			Trials: 300, Seed: 7, Dmax: 100,
			Workers: workers, Engine: eng,
			Stop: &Stopper{TargetCI: 0.12},
		})
	}
	ref, refRecs := run(1, interp.EngineFast)
	if ref.Skipped == 0 {
		t.Fatalf("target ±0.12 never converged in 300 trials; test needs a converging region")
	}
	for _, v := range []struct {
		workers int
		eng     interp.Engine
	}{{7, interp.EngineFast}, {3, interp.EngineRef}, {0, interp.EngineRef}} {
		got, gotRecs := run(v.workers, v.eng)
		if got.Executed != ref.Executed || got.Skipped != ref.Skipped || got.Mispredicted != ref.Mispredicted {
			t.Errorf("workers=%d engine=%v: executed/skipped/mispred %d/%d/%d vs ref %d/%d/%d",
				v.workers, v.eng, got.Executed, got.Skipped, got.Mispredicted,
				ref.Executed, ref.Skipped, ref.Mispredicted)
		}
		if !reflect.DeepEqual(gotRecs, refRecs) {
			t.Errorf("workers=%d engine=%v: records diverged", v.workers, v.eng)
		}
	}
}

// TestAdaptiveOneDispatch: an adaptive campaign runs as one dispatch
// over its trial range, so each worker leases its machine once and
// observes its throughput once, however many rounds the campaign has.
func TestAdaptiveOneDispatch(t *testing.T) {
	res, art := compileApp(t, "175.vpr")
	const workers = 4
	reg := obs.NewRegistry()
	camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
		Trials: 160, Seed: 5, Dmax: 100, Workers: workers, Obs: reg,
		Stop: &Stopper{TargetCI: 0.2, Round: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Skipped == 0 {
		t.Fatal("the stopper skipped nothing; the case does not exercise rounds")
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "sfi.worker.trials_per_sec" && h.Count > workers {
			t.Errorf("%d worker throughput samples for %d workers: more than one dispatch", h.Count, workers)
		}
	}
}

// TestAdaptiveInvariant replays the round policy against a fully
// executed campaign and checks the stopping contract on the real run:
// every trial is executed or skipped (never lost), a key is only ever
// skipped after its Wilson half-width reached the target, and keys that
// never converged have their predicted trial space exhausted.
func TestAdaptiveInvariant(t *testing.T) {
	res, art := compileApp(t, "g721encode")
	const trials = 300
	stopper := &Stopper{TargetCI: 0.12}
	camp, recs := collect(t, res, art.Outputs, CampaignConfig{Trials: trials, Seed: 9, Dmax: 100, Stop: stopper})
	if camp.Executed+camp.Skipped != trials {
		t.Fatalf("trial accounting: executed %d + skipped %d != %d", camp.Executed, camp.Skipped, trials)
	}
	if len(recs) != camp.Executed {
		t.Fatalf("%d records for %d executed trials", len(recs), camp.Executed)
	}
	sum := 0
	for _, c := range camp.Counts {
		sum += c
	}
	if sum != camp.Executed {
		t.Fatalf("outcome counts sum %d != executed %d", sum, camp.Executed)
	}

	// Rebuild the final per-key tallies from the executed records, keyed
	// exactly as the stopper folds them (actual strike region, or the
	// not-injected pool).
	type tally struct{ n, k int }
	final := map[int]*tally{}
	executedOf := map[int]int{}
	for _, rec := range recs {
		key := NotInjectedKey
		if rec.Injected {
			key = rec.RegionID
		}
		tl := final[key]
		if tl == nil {
			tl = &tally{}
			final[key] = tl
		}
		tl.n++
		if rec.Outcome == Recovered {
			tl.k++
		}
		executedOf[key]++
	}
	// Predicted trial counts per key come from the same region map the
	// campaign used; with zero mispredictions (asserted) predicted and
	// actual keys coincide trial for trial.
	if camp.Mispredicted != 0 {
		t.Logf("campaign mispredicted %d trials; exhaustion check is per predicted key", camp.Mispredicted)
	}
	target := stopper.target()
	for key, tl := range final {
		_, _, half := ci.Wilson(tl.k, tl.n)
		if half <= target {
			continue // converged: skipping this key was sound
		}
		// Not converged: the key must have had its whole predicted trial
		// space executed — an unconverged key is never skipped.
		if camp.Mispredicted == 0 && camp.Skipped > 0 {
			// Cross-check against a fresh exhaustive run: every trial that
			// strikes this key in the exhaustive records must appear in the
			// adaptive records too.
			_, full := collect(t, res, art.Outputs, CampaignConfig{Trials: trials, Seed: 9, Dmax: 100})
			fullCount := 0
			for _, rec := range full {
				k := NotInjectedKey
				if rec.Injected {
					k = rec.RegionID
				}
				if k == key {
					fullCount++
				}
			}
			if executedOf[key] != fullCount {
				t.Errorf("key %d: half ±%.3f > target ±%.3f but only %d of %d trials executed",
					key, half, target, executedOf[key], fullCount)
			}
		}
	}
	if camp.Skipped == 0 {
		t.Errorf("target ±%.2f skipped nothing in %d trials; stopping is inert", target, trials)
	}
}

// TestAdaptivePriorReuse: seeding the stopper with a prior campaign's
// tallies (keyed by region content hash) must skip already-converged
// regions from round one; a prior with non-matching hashes must change
// nothing.
func TestAdaptivePriorReuse(t *testing.T) {
	res, art := compileApp(t, "g721encode")
	regions := regionTable(res, 100)
	const trials = 200
	base := CampaignConfig{
		Trials: trials, Seed: 7, Dmax: 100,
		Regions: regions, Stop: &Stopper{},
	}
	fresh, freshRecs := collect(t, res, art.Outputs, base)

	// Distill the executed records into priors as stats.Estimator.Priors
	// does.
	hashOf := map[int]string{}
	for _, ri := range regions {
		hashOf[ri.ID] = ri.Hash
	}
	tallies := map[int]*PriorRegion{}
	for _, rec := range freshRecs {
		if !rec.Injected || hashOf[rec.RegionID] == "" {
			continue
		}
		p := tallies[rec.RegionID]
		if p == nil {
			p = &PriorRegion{Hash: hashOf[rec.RegionID]}
			tallies[rec.RegionID] = p
		}
		p.Struck++
		if rec.Outcome == Recovered {
			p.Recovered++
		}
	}
	var prior []PriorRegion
	for _, p := range tallies {
		prior = append(prior, *p)
	}

	cfg := base
	cfg.Prior = prior
	reused, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reused.Executed >= fresh.Executed {
		t.Errorf("prior reuse executed %d trials, fresh run executed %d; composition saved nothing",
			reused.Executed, fresh.Executed)
	}

	// A prior whose hashes match nothing (the "every region changed"
	// case) must leave the run identical to the fresh one.
	stale := make([]PriorRegion, len(prior))
	for i, p := range prior {
		p.Hash = "0000000000000000000000000000000" + string(rune('a'+i))
		stale[i] = p
	}
	cfg.Prior = stale
	changed, changedRecs := collect(t, res, art.Outputs, cfg)
	if changed.Executed != fresh.Executed || changed.Skipped != fresh.Skipped {
		t.Errorf("stale-hash prior perturbed the run: executed %d/%d skipped %d/%d",
			changed.Executed, fresh.Executed, changed.Skipped, fresh.Skipped)
	}
	if !reflect.DeepEqual(changedRecs, freshRecs) {
		t.Error("stale-hash prior changed the records")
	}
}
