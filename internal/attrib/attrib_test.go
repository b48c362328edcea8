package attrib

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// synthetic builds a hand-checkable campaign: two regions, four injected
// trials plus one not-injected and one outside any region.
func synthetic() *Campaign {
	meta := sfi.CampaignMeta{
		App: "synth", Trials: 6, Seed: 9, Dmax: 10, Bits: 32, GoldenInstrs: 100,
		Regions: []sfi.RegionInfo{
			{ID: 1, Fn: "f", Header: "h1", Class: "idempotent", Selected: true, DynFrac: 0.5, InstanceLen: 20, Alpha: 0.75},
			{ID: 2, Fn: "g", Header: "h2", Class: "clobber", Selected: false, DynFrac: 0.2, InstanceLen: 5, Alpha: 0.25},
		},
	}
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
	return &Campaign{Meta: meta, Records: recs}
}

func TestAttributeSynthetic(t *testing.T) {
	rep := Attribute(synthetic())
	if rep.Trials != 6 || rep.Injected != 5 || rep.Unattributed != 1 {
		t.Fatalf("accounting: %+v", rep)
	}
	// Only the selected region contributes to predicted coverage.
	if math.Abs(rep.PredCoverage-0.5*0.75) > 1e-12 {
		t.Errorf("pred coverage %g, want 0.375", rep.PredCoverage)
	}
	// 3 recoveries of 5 injected; 2 were same-instance.
	if math.Abs(rep.MeasuredRecovered-3.0/5) > 1e-12 {
		t.Errorf("measured recovered %g", rep.MeasuredRecovered)
	}
	if math.Abs(rep.MeasuredSameInstance-2.0/5) > 1e-12 {
		t.Errorf("measured same-instance %g", rep.MeasuredSameInstance)
	}
	if math.Abs(rep.AbsErr-math.Abs(2.0/5-0.375)) > 1e-12 {
		t.Errorf("abs err %g", rep.AbsErr)
	}
	if rep.Outcomes["recovered"] != 3 || rep.Outcomes["not-injected"] != 1 {
		t.Errorf("outcome map: %v", rep.Outcomes)
	}
	if len(rep.Regions) != 2 || rep.Regions[0].ID != 1 || rep.Regions[1].ID != 2 {
		t.Fatalf("region rows: %+v", rep.Regions)
	}
	r1 := rep.Regions[0]
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
	r2 := rep.Regions[1]
	if r2.Struck != 1 || r2.Recovered != 1 || r2.SameInstance != 0 || r2.Measured != 1 {
		t.Errorf("region 2: %+v", r2)
	}
}

func TestAttributeUnknownRegionSynthesized(t *testing.T) {
	c := synthetic()
	c.Records = append(c.Records, sfi.TrialRecord{
		Trial: 6, Injected: true, RegionID: 77, Class: "mystery", Outcome: sfi.Crashed,
	})
	rep := Attribute(c)
	last := rep.Regions[len(rep.Regions)-1]
	if last.ID != 77 || last.Struck != 1 || last.Class != "mystery" {
		t.Fatalf("synthesized row: %+v", last)
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`{"type":"trial","trial":0}` + "\n")); err == nil {
		t.Error("trial before header must error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"type":"meltdown"}` + "\n")); err == nil {
		t.Error("unknown type must error")
	}
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed JSON must error")
	}
	if cs, err := ReadTrace(strings.NewReader("")); err != nil || len(cs) != 0 {
		t.Errorf("empty trace: %v %v", cs, err)
	}
}

// recordSink is a StatsSink that keeps every trial record it receives.
type recordSink []sfi.TrialRecord

func (r *recordSink) ObserveCampaign(sfi.CampaignMeta) {}
func (r *recordSink) ObserveTrial(rec sfi.TrialRecord) { *r = append(*r, rec) }

// TestRoundTripRealCampaign pushes a real campaign through the JSONL sink
// and back through ReadTrace, requiring the records the campaign
// delivered to come back losslessly and a sane attribution table.
func TestRoundTripRealCampaign(t *testing.T) {
	sp, err := workload.ByName("g721encode")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var regions []sfi.RegionInfo
	for _, rc := range res.RegionCoverages(100) {
		regions = append(regions, sfi.RegionInfo{
			ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
			Selected: rc.Selected, DynFrac: rc.DynFrac,
			InstanceLen: rc.InstanceLen, Alpha: rc.Alpha,
		})
	}
	var buf bytes.Buffer
	var in recordSink
	camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: 80, Seed: 3, Dmax: 100, App: "g721encode",
		Regions: regions, Trace: obs.NewJSONLSink(&buf), Stats: &in,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || len(cs[0].Records) != 80 {
		t.Fatalf("round trip shape: %d campaigns", len(cs))
	}
	for i, r := range cs[0].Records {
		if r != in[i] {
			t.Fatalf("trial %d differs after round trip:\n in: %+v\nout: %+v", i, in[i], r)
		}
	}
	rep := Attribute(cs[0])
	if rep.App != "g721encode" || rep.Injected == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if math.Abs(rep.MeasuredRecovered-camp.Rate(sfi.Recovered)) > 1e-12 {
		t.Errorf("measured recovered %g disagrees with campaign rate %g",
			rep.MeasuredRecovered, camp.Rate(sfi.Recovered))
	}
	struck := 0
	for _, row := range rep.Regions {
		struck += row.Struck
	}
	if struck+rep.Unattributed != rep.Injected {
		t.Errorf("struck %d + unattributed %d != injected %d", struck, rep.Unattributed, rep.Injected)
	}
	var text bytes.Buffer
	if err := WriteText(&text, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"app g721encode", "measured same-instance", "alpha", "|err|"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	var js bytes.Buffer
	if err := WriteJSON(&js, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	again, err := ReadReports(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].App != rep.App || again[0].Injected != rep.Injected {
		t.Fatalf("JSON report round trip: %+v", again)
	}
}
