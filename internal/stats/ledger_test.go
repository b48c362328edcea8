package stats

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// synthetic feeds a hand-checkable campaign into a fresh estimator: two
// header regions (only region 1 hashed), four injected trials plus one
// not injected and one outside any region, then any extra records.
func synthetic(extra ...sfi.TrialRecord) *Estimator {
	e := New()
	e.ObserveCampaign(sfi.CampaignMeta{
		App: "synth", Trials: 6, Seed: 9, Dmax: 10, Bits: 32, GoldenInstrs: 100,
		Regions: []sfi.RegionInfo{
			{ID: 1, Fn: "f", Header: "h1", Class: "idempotent", Selected: true, DynFrac: 0.5, InstanceLen: 20, Alpha: 0.75, Hash: "aa"},
			{ID: 2, Fn: "g", Header: "h2", Class: "clobber", Selected: false, DynFrac: 0.2, InstanceLen: 5, Alpha: 0.25},
		},
	})
	recs := []sfi.TrialRecord{
		{Trial: 0, Injected: false, RegionID: -1, Outcome: sfi.NotInjected},
		{Trial: 1, Injected: true, RegionID: 1, Latency: 0, Outcome: sfi.Recovered,
			RolledBack: true, SameInstance: true, RollbackDistance: 10, ReExecInstrs: 12},
		{Trial: 2, Injected: true, RegionID: 1, Latency: 20, Outcome: sfi.SilentCorruption},
		{Trial: 3, Injected: true, RegionID: 2, Latency: 5, Outcome: sfi.Recovered,
			RolledBack: true, SameInstance: false, RollbackDistance: 30, ReExecInstrs: 8},
		{Trial: 4, Injected: true, RegionID: -1, Outcome: sfi.DetectedUnrecoverable},
		{Trial: 5, Injected: true, RegionID: 1, Latency: 10, Outcome: sfi.Recovered,
			RolledBack: true, SameInstance: true, RollbackDistance: 14, ReExecInstrs: 0},
	}
	for _, r := range append(recs, extra...) {
		e.ObserveTrial(r)
	}
	return e
}

// TestSnapshotSynthetic checks the attribution join -report prints
// against hand computation.
func TestSnapshotSynthetic(t *testing.T) {
	s := synthetic().Snapshot()
	if s.Planned != 6 || s.Injected != 5 || s.Unattributed != 1 {
		t.Fatalf("accounting: %+v", s)
	}
	// Only the selected region contributes to predicted coverage.
	if math.Abs(s.PredCoverage-0.5*0.75) > 1e-12 {
		t.Errorf("pred coverage %g, want 0.375", s.PredCoverage)
	}
	// 3 recoveries of 5 injected; 2 were same-instance.
	if math.Abs(s.MeasuredRecovered-3.0/5) > 1e-12 {
		t.Errorf("measured recovered %g", s.MeasuredRecovered)
	}
	if math.Abs(s.MeasuredSameInstance-2.0/5) > 1e-12 {
		t.Errorf("measured same-instance %g", s.MeasuredSameInstance)
	}
	if math.Abs(s.AbsErr-math.Abs(2.0/5-0.375)) > 1e-12 {
		t.Errorf("abs err %g", s.AbsErr)
	}
	outcomes := map[string]int{}
	for _, oc := range s.Outcomes {
		outcomes[oc.Outcome] = oc.Count
	}
	if outcomes["recovered"] != 3 || outcomes["not-injected"] != 1 {
		t.Errorf("outcome histogram: %v", s.Outcomes)
	}
	if len(s.Regions) != 2 || s.Regions[0].ID != 1 || s.Regions[1].ID != 2 {
		t.Fatalf("region rows: %+v", s.Regions)
	}
	r1 := s.Regions[0]
	if r1.Struck != 3 || r1.Recovered != 2 || r1.SameInstance != 2 {
		t.Errorf("region 1 counts: %+v", r1)
	}
	if math.Abs(r1.Measured-2.0/3) > 1e-12 {
		t.Errorf("region 1 measured %g", r1.Measured)
	}
	if math.Abs(r1.AbsErr-math.Abs(2.0/3-0.75)) > 1e-12 {
		t.Errorf("region 1 abs err %g", r1.AbsErr)
	}
	// Latencies 0, 20, 10 against n=20: mean(1, 0, 0.5) = 0.5.
	if math.Abs(r1.EmpAlpha-0.5) > 1e-12 {
		t.Errorf("region 1 empirical alpha %g, want 0.5", r1.EmpAlpha)
	}
	// Rollback mean over trials 1 and 5: (10+14)/2; reexec over 12 only
	// (trial 5's 0 carries no surcharge).
	if math.Abs(r1.MeanRollback-12) > 1e-12 || math.Abs(r1.MeanReExec-12) > 1e-12 {
		t.Errorf("region 1 costs: rollback %g reexec %g", r1.MeanRollback, r1.MeanReExec)
	}
	r2 := s.Regions[1]
	if r2.Struck != 1 || r2.Recovered != 1 || r2.SameInstance != 0 || r2.Measured != 1 {
		t.Errorf("region 2: %+v", r2)
	}
}

func TestSnapshotUnknownRegionSynthesized(t *testing.T) {
	s := synthetic(sfi.TrialRecord{
		Trial: 6, Injected: true, RegionID: 77, Class: "mystery", Outcome: sfi.Crashed,
	}).Snapshot()
	last := s.Regions[len(s.Regions)-1]
	if last.ID != 77 || last.Struck != 1 || last.Class != "mystery" {
		t.Fatalf("synthesized row: %+v", last)
	}
}

// TestPriors: only struck regions whose header row carries a content
// hash become priors; the unhashed header region and the synthesized
// row are left out.
func TestPriors(t *testing.T) {
	e := synthetic(sfi.TrialRecord{
		Trial: 6, Injected: true, RegionID: 77, Class: "mystery", Outcome: sfi.Recovered,
	})
	want := []sfi.PriorRegion{{Hash: "aa", Struck: 3, Recovered: 2}}
	if got := e.Priors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Priors() = %+v, want %+v", got, want)
	}
	if got := New().Priors(); got != nil {
		t.Fatalf("empty estimator priors = %+v, want none", got)
	}
}

// TestReadLedgerMatchesLive locks the exactness invariant: for a
// finished campaign, replaying its ledger yields a snapshot deeply equal
// — every float bit for bit — to the live estimator's, at several worker
// counts (the estimator is fed in trial order regardless, so parallelism
// must not perturb a single accumulator).
func TestReadLedgerMatchesLive(t *testing.T) {
	for _, app := range []string{"rawcaudio", "g721encode"} {
		sp, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		art := sp.Build()
		ccfg := core.DefaultConfig()
		ccfg.Obs = obs.NewRegistry()
		res, err := core.Compile(art.Mod, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			const dmax = int64(100)
			live := New()
			var ledger bytes.Buffer
			if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
				Trials: 40, Seed: 11, Dmax: dmax, Workers: workers,
				Obs: obs.NewRegistry(), App: app, Regions: regionTable(res, dmax),
				Trace: obs.NewJSONLSink(&ledger), Stats: live,
			}); err != nil {
				t.Fatal(err)
			}
			snaps, err := ReadLedger(&ledger)
			if err != nil || len(snaps) != 1 {
				t.Fatalf("replaying the ledger: %d campaigns, %v", len(snaps), err)
			}
			if want := live.Snapshot(); !reflect.DeepEqual(snaps[0], want) {
				t.Errorf("%s workers=%d: replay diverges from live:\nreplay: %+v\n  live: %+v", app, workers, snaps[0], want)
			}
		}
	}
}

// TestReadLedgerError: a damaged ledger yields the replay error and no
// snapshots, not the campaigns before the damage.
func TestReadLedgerError(t *testing.T) {
	in := `{"type":"campaign","app":"a"}` + "\n" + `{"type":"trial","trial":0}` + "\n" + `{"type":"bogus"}` + "\n"
	snaps, err := ReadLedger(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v does not name line 3", err)
	}
	if snaps != nil {
		t.Fatalf("snapshots %v returned alongside the error", snaps)
	}
}
