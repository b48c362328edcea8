package attrib

import (
	"bytes"
	"reflect"
	"testing"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// TestFromStatsMatchesAttribute locks the exactness invariant: for a
// finished campaign, the report derived from the online estimator's
// final snapshot is deeply equal — every float bit for bit — to the
// batch Attribute pass over the same campaign's complete ledger, at
// several worker counts (the estimator is fed in trial order regardless,
// so parallelism must not perturb a single accumulator).
func TestFromStatsMatchesAttribute(t *testing.T) {
	for _, app := range []string{"rawcaudio", "g721encode"} {
		for _, workers := range []int{1, 4} {
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
			const dmax = int64(100)
			var regions []sfi.RegionInfo
			for _, rc := range res.RegionCoverages(float64(dmax)) {
				regions = append(regions, sfi.RegionInfo{
					ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
					Selected: rc.Selected, DynFrac: rc.DynFrac,
					InstanceLen: rc.InstanceLen, Alpha: rc.Alpha,
				})
			}
			est := stats.New()
			var ledger bytes.Buffer
			if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
				Trials: 40, Seed: 11, Dmax: dmax, Workers: workers,
				Obs: obs.NewRegistry(), App: app, Regions: regions,
				Trace: obs.NewJSONLSink(&ledger), Stats: est,
			}); err != nil {
				t.Fatal(err)
			}
			cs, err := ReadTrace(&ledger)
			if err != nil || len(cs) != 1 {
				t.Fatalf("reading the ledger back: %d campaigns, %v", len(cs), err)
			}
			want := Attribute(cs[0])
			got := FromStats(est.Snapshot())
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s workers=%d: FromStats diverges from Attribute:\nattribute: %+v\nfromstats: %+v", app, workers, want, got)
			}
		}
	}
}

// TestFromStatsPartial checks the mid-campaign shape: a snapshot of a
// prefix renders as a report whose Trials is the plan (the snapshot
// carries it) while the tallies cover only the observed records.
func TestFromStatsPartial(t *testing.T) {
	est := stats.New()
	est.ObserveCampaign(sfi.CampaignMeta{App: "x", Trials: 10})
	est.ObserveTrial(sfi.TrialRecord{Trial: 0, Injected: true, RegionID: -1, Outcome: sfi.Crashed})
	rep := FromStats(est.Snapshot())
	if rep.Trials != 10 || rep.Injected != 1 || rep.Unattributed != 1 {
		t.Fatalf("partial report wrong: %+v", rep)
	}
	if rep.Outcomes["crashed"] != 1 {
		t.Fatalf("outcome histogram wrong: %+v", rep.Outcomes)
	}
	// With no planned count in the header, Trials falls back to observed.
	est2 := stats.New()
	est2.ObserveTrial(sfi.TrialRecord{Trial: 0, Outcome: sfi.NotInjected})
	if rep := FromStats(est2.Snapshot()); rep.Trials != 1 {
		t.Fatalf("fallback Trials = %d, want 1", rep.Trials)
	}
}
