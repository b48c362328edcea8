package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/workload"
)

func TestWilsonKnownValues(t *testing.T) {
	// n = 0: total uncertainty.
	lo, hi, half := Wilson(0, 0)
	if lo != 0 || hi != 1 || half != 0.5 {
		t.Fatalf("Wilson(0,0) = (%v, %v, %v), want (0, 1, 0.5)", lo, hi, half)
	}
	// Textbook value: 5/10 successes at 95% → [0.2366, 0.7634].
	lo, hi, _ = Wilson(5, 10)
	if math.Abs(lo-0.2366) > 1e-3 || math.Abs(hi-0.7634) > 1e-3 {
		t.Fatalf("Wilson(5,10) = [%v, %v], want ≈[0.2366, 0.7634]", lo, hi)
	}
	// Extremes stay clamped inside [0, 1] and non-degenerate.
	lo, hi, half = Wilson(10, 10)
	if lo <= 0 || hi != 1 || half <= 0 {
		t.Fatalf("Wilson(10,10) = (%v, %v, %v): want 0 < lo, hi = 1, half > 0", lo, hi, half)
	}
	lo, hi, _ = Wilson(0, 10)
	if lo != 0 || hi >= 1 {
		t.Fatalf("Wilson(0,10) = [%v, %v]: want lo = 0, hi < 1", lo, hi)
	}
}

func TestWilsonShrinksWithN(t *testing.T) {
	prev := 1.0
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		_, _, half := Wilson(n/2, n)
		if half >= prev {
			t.Fatalf("Wilson half-width did not shrink at n=%d: %v >= %v", n, half, prev)
		}
		prev = half
	}
}

func TestMomentsAgainstDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var m moments
	sum := 0.0
	for _, x := range xs {
		m.observe(x)
		sum += x
	}
	mean := sum / float64(len(xs))
	if got := m.avg(); got != sum/float64(len(xs)) {
		t.Fatalf("avg = %v, want exact sum/n = %v", got, sum/float64(len(xs)))
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	want := math.Sqrt(varSum / float64(len(xs)))
	if got := m.std(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", got, want)
	}
	var zero moments
	if zero.avg() != 0 || zero.std() != 0 {
		t.Fatalf("empty moments: avg/std = %v/%v, want 0/0", zero.avg(), zero.std())
	}
}

// TestEstimatorAggregation feeds a hand-built campaign through the
// estimator and checks every snapshot field against the obvious direct
// computation, including the synthesized row for a strike in a region
// missing from the header table.
func TestEstimatorAggregation(t *testing.T) {
	e := New()
	e.ObserveCampaign(sfi.CampaignMeta{
		App: "toy", Trials: 5, Seed: 9, Dmax: 40,
		Regions: []sfi.RegionInfo{
			{ID: 0, Fn: "f", Class: "idem", Selected: true, DynFrac: 0.5, InstanceLen: 100, Alpha: 0.8},
			{ID: 1, Fn: "g", Class: "ga", Selected: false, DynFrac: 0.1, InstanceLen: 10, Alpha: 0.2},
		},
	})
	recs := []sfi.TrialRecord{
		{Trial: 0, Injected: true, RegionID: 0, Latency: 20, Outcome: sfi.Recovered,
			SameInstance: true, RolledBack: true, RollbackDistance: 30, ReExecInstrs: 35},
		{Trial: 1, Injected: true, RegionID: 0, Latency: 120, Outcome: sfi.SilentCorruption},
		{Trial: 2, Injected: true, RegionID: -1, Outcome: sfi.Crashed},
		{Trial: 3, Injected: false, Outcome: sfi.NotInjected},
		{Trial: 4, Injected: true, RegionID: 7, Class: "loop", Latency: 5, Outcome: sfi.Benign},
	}
	for _, r := range recs {
		e.ObserveTrial(r)
	}
	if got := e.Trials(); got != 5 {
		t.Fatalf("Trials() = %d, want 5", got)
	}
	s := e.Snapshot()
	if s.App != "toy" || s.Planned != 5 || s.Trials != 5 || s.Injected != 4 {
		t.Fatalf("header fields wrong: %+v", s)
	}
	if s.Unattributed != 1 {
		t.Fatalf("Unattributed = %d, want 1", s.Unattributed)
	}
	if want := 0.5 * 0.8; s.PredCoverage != want {
		t.Fatalf("PredCoverage = %v, want %v (selected regions only)", s.PredCoverage, want)
	}
	if s.MeasuredRecovered != 0.25 || s.MeasuredSameInstance != 0.25 {
		t.Fatalf("measured rates = %v/%v, want 0.25/0.25", s.MeasuredRecovered, s.MeasuredSameInstance)
	}
	if len(s.Regions) != 3 {
		t.Fatalf("got %d region rows, want 3 (two header + one synthesized)", len(s.Regions))
	}
	r0 := s.Regions[0]
	if r0.ID != 0 || r0.Struck != 2 || r0.Recovered != 1 || r0.SameInstance != 1 {
		t.Fatalf("region 0 tallies wrong: %+v", r0)
	}
	if r0.Measured != 0.5 || r0.PredAlpha != 0.8 {
		t.Fatalf("region 0 rates wrong: %+v", r0)
	}
	// Empirical α: latency 20 contributes (100-20)/100, 120 contributes 0.
	if want := 0.8 / 2; r0.EmpAlpha != want {
		t.Fatalf("region 0 EmpAlpha = %v, want %v", r0.EmpAlpha, want)
	}
	if r0.MeanRollback != 30 || r0.MeanReExec != 35 {
		t.Fatalf("region 0 moments wrong: %+v", r0)
	}
	if lo, hi, half := Wilson(1, 2); r0.WilsonLo != lo || r0.WilsonHi != hi || r0.CIHalfWidth != half {
		t.Fatalf("region 0 CI mismatch: %+v", r0)
	}
	// Unstruck header region keeps its identity and total uncertainty.
	r1 := s.Regions[1]
	if r1.ID != 1 || r1.Struck != 0 || r1.CIHalfWidth != 0.5 {
		t.Fatalf("region 1 (unstruck) wrong: %+v", r1)
	}
	// Synthesized row: class from the striking record, no alpha inputs.
	r7 := s.Regions[2]
	if r7.ID != 7 || r7.Class != "loop" || r7.Struck != 1 || r7.EmpAlpha != 0 {
		t.Fatalf("synthesized region 7 wrong: %+v", r7)
	}
	// WorstCI only ranks selected regions: region 0 at 2 strikes.
	if s.WorstRegionID != 0 {
		t.Fatalf("WorstRegionID = %d, want 0 (only selected region)", s.WorstRegionID)
	}
	if _, _, half := Wilson(1, 2); s.WorstCIHalfWidth != half {
		t.Fatalf("WorstCIHalfWidth = %v, want Wilson(1,2) half", s.WorstCIHalfWidth)
	}
}

func TestWorstCINoSelectedRegions(t *testing.T) {
	e := New()
	e.ObserveCampaign(sfi.CampaignMeta{Regions: []sfi.RegionInfo{{ID: 3, Selected: false}}})
	if id, half := e.WorstCI(); id != -1 || half != 0 {
		t.Fatalf("WorstCI with no selected regions = (%d, %v), want (-1, 0)", id, half)
	}
}

// regionTable mirrors serve.RegionTable without importing serve (serve
// imports this package).
func regionTable(res *core.Result, dmax int64) []sfi.RegionInfo {
	var out []sfi.RegionInfo
	for _, rc := range res.RegionCoverages(float64(dmax)) {
		out = append(out, sfi.RegionInfo{
			ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
			Selected: rc.Selected, DynFrac: rc.DynFrac,
			InstanceLen: rc.InstanceLen, Alpha: rc.Alpha,
		})
	}
	return out
}

// campaignSnapshot compiles app, runs the campaign with an estimator
// attached, and returns the final snapshot's JSON bytes.
func campaignSnapshot(t *testing.T, app string, trials, workers int, engine interp.Engine) []byte {
	t.Helper()
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
	const (
		seed = uint64(7)
		dmax = int64(100)
	)
	est := New()
	if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: trials, Seed: seed, Dmax: dmax, Workers: workers,
		Engine: engine, Obs: obs.NewRegistry(),
		App: app, Regions: regionTable(res, dmax), Stats: est,
	}); err != nil {
		t.Fatal(err)
	}
	if got := est.Trials(); got != trials {
		t.Fatalf("estimator observed %d trials, want %d", got, trials)
	}
	raw, err := json.Marshal(est.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotDeterminism locks the tentpole invariant: for the same
// campaign, the final snapshot's JSON encoding is byte-identical across
// worker counts and execution engines (mirroring
// TestServedLedgerMatchesBatch for the ledger bytes).
func TestSnapshotDeterminism(t *testing.T) {
	const (
		app    = "rawcaudio"
		trials = 24
	)
	want := campaignSnapshot(t, app, trials, 1, interp.EngineFast)
	if len(want) == 0 {
		t.Fatal("reference snapshot is empty")
	}
	for _, engine := range []interp.Engine{interp.EngineFast, interp.EngineRef} {
		for _, workers := range []int{1, 4, 8} {
			name := fmt.Sprintf("engine=%v/workers=%d", engine, workers)
			got := campaignSnapshot(t, app, trials, workers, engine)
			if !bytes.Equal(want, got) {
				t.Errorf("%s: snapshot bytes differ from workers=1 fast reference", name)
			}
		}
	}
}

// TestSnapshotMidCampaignConsistent checks that a snapshot taken while
// trials are still arriving is internally consistent (tallies sum, no
// torn reads), exercising the ObserveTrial/Snapshot lock under -race.
func TestSnapshotMidCampaignConsistent(t *testing.T) {
	sp, err := workload.ByName("rawdaudio")
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
	est := New()
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 100; i++ {
			s := est.Snapshot()
			n := 0
			for _, oc := range s.Outcomes {
				n += oc.Count
			}
			if n != s.Trials {
				t.Errorf("torn snapshot: outcome counts sum %d != trials %d", n, s.Trials)
				return
			}
		}
	}()
	if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: 60, Seed: 3, Dmax: 50, Workers: 4, Obs: obs.NewRegistry(),
		App: "rawdaudio", Regions: regionTable(res, 50), Stats: est,
	}); err != nil {
		t.Fatal(err)
	}
	<-stop
}

func TestSnapshotsRoundTrip(t *testing.T) {
	e := New()
	e.ObserveCampaign(sfi.CampaignMeta{App: "x", Trials: 1, Seed: 2, Dmax: 3,
		Regions: []sfi.RegionInfo{{ID: 0, Selected: true, DynFrac: 0.5, InstanceLen: 8, Alpha: 0.4}}})
	e.ObserveTrial(sfi.TrialRecord{Trial: 0, Injected: true, RegionID: 0, Latency: 2, Outcome: sfi.Recovered, SameInstance: true})
	snaps := []*Snapshot{e.Snapshot()}
	var buf bytes.Buffer
	if err := WriteSnapshotsFile("-", snaps, &buf); err != nil {
		t.Fatal(err)
	}
	var back []*Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(snaps)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed snapshots:\n%s\nvs\n%s", a, b)
	}
	if err := WriteSnapshotsFile("", nil, nil); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
}
