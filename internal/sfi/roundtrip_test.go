package sfi_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// TestRoundTripRealCampaign pushes a real campaign through the JSONL sink
// and back through ReplayLedger, requiring the header and records the
// campaign delivered live to come back losslessly, and the replayed
// snapshot to account for every injected trial.
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
	in := &campaignLog{}
	camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: 80, Seed: 3, Dmax: 100, App: "g721encode",
		Regions: regions, Trace: obs.NewJSONLSink(&buf), Stats: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := replayOne(t, buf.Bytes())
	if len(out.recs) != 80 {
		t.Fatalf("round trip shape: %d records", len(out.recs))
	}
	if !reflect.DeepEqual(out.meta, in.meta) {
		t.Fatalf("header differs after round trip:\n in: %+v\nout: %+v", in.meta, out.meta)
	}
	for i, r := range out.recs {
		if r != in.recs[i] {
			t.Fatalf("trial %d differs after round trip:\n in: %+v\nout: %+v", i, in.recs[i], r)
		}
	}
	snaps, err := stats.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := snaps[0]
	if len(snaps) != 1 || s.App != "g721encode" || s.Injected == 0 {
		t.Fatalf("snapshot: %+v", s)
	}
	if math.Abs(s.MeasuredRecovered-camp.Rate(sfi.Recovered)) > 1e-12 {
		t.Errorf("measured recovered %g disagrees with campaign rate %g",
			s.MeasuredRecovered, camp.Rate(sfi.Recovered))
	}
	struck := 0
	for _, row := range s.Regions {
		struck += row.Struck
	}
	if struck+s.Unattributed != s.Injected {
		t.Errorf("struck %d + unattributed %d != injected %d", struck, s.Unattributed, s.Injected)
	}
}

// mergeFixture is one compiled workload shared by the merge battery.
type mergeFixture struct {
	name    string
	res     *core.Result
	art     *workload.Artifact
	regions []sfi.RegionInfo
}

func buildFixture(t *testing.T, name string) *mergeFixture {
	t.Helper()
	sp, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &mergeFixture{name: name, res: res, art: art, regions: serve.RegionTable(res, 100)}
}

// ledger runs one campaign and returns the raw JSONL bytes.
func (fx *mergeFixture) ledger(t *testing.T, cfg sfi.CampaignConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.App = fx.name
	cfg.Regions = fx.regions
	cfg.Trace = obs.NewJSONLSink(&buf)
	if _, err := sfi.RunCampaign(fx.res.Mod, fx.res.Metas, fx.art.Outputs, cfg); err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	return buf.Bytes()
}

// TestMergeByteIdentical is the battery: for three workloads crossed
// with worker counts, shard counts, and engines, the shard ledgers —
// merged in several argument permutations — must be byte-identical to
// the single-process ledger, and replaying that ledger must reproduce
// the live estimator's snapshot float for float.
func TestMergeByteIdentical(t *testing.T) {
	const trials = 40
	for _, app := range []string{"g721encode", "175.vpr", "rawdaudio"} {
		fx := buildFixture(t, app)
		base := sfi.CampaignConfig{Trials: trials, Seed: 13, Dmax: 100}
		live := stats.New()
		cfg := base
		cfg.Stats = live
		single := fx.ledger(t, cfg)
		for _, workers := range []int{1, 3} {
			for _, shards := range []int{2, 3, 5} {
				for _, eng := range []interp.Engine{interp.EngineFast, interp.EngineRef} {
					t.Run(fmt.Sprintf("%s/w%d/k%d/%v", app, workers, shards, eng), func(t *testing.T) {
						pieces := make([][]byte, shards)
						for i := range pieces {
							cfg := base
							cfg.Workers = workers
							cfg.Engine = eng
							cfg.Shard = &sfi.ShardRange{Index: i + 1, Count: shards}
							pieces[i] = fx.ledger(t, cfg)
						}
						// Merge under a few argument orders: identity,
						// reversed, and a rotation — ordering must come from
						// trial indices, never argument position.
						perms := [][]int{make([]int, shards), make([]int, shards), make([]int, shards)}
						for i := 0; i < shards; i++ {
							perms[0][i] = i
							perms[1][i] = shards - 1 - i
							perms[2][i] = (i + 1) % shards
						}
						for _, perm := range perms {
							readers := make([]io.Reader, shards)
							for i, p := range perm {
								readers[i] = bytes.NewReader(pieces[p])
							}
							var merged bytes.Buffer
							if err := sfi.MergeLedgers(&merged, readers...); err != nil {
								t.Fatalf("merge %v: %v", perm, err)
							}
							if !bytes.Equal(merged.Bytes(), single) {
								t.Fatalf("merge %v differs from single-process ledger", perm)
							}
						}
					})
				}
			}
		}

		// The single ledger is what every merge reproduces, so replaying
		// it is what -merge -stats does.
		snaps, err := stats.ReadLedger(bytes.NewReader(single))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 1 {
			t.Fatalf("%d campaigns in single ledger", len(snaps))
		}
		if want := live.Snapshot(); !reflect.DeepEqual(snaps[0], want) {
			t.Errorf("%s: replayed snapshot != live snapshot:\nreplay: %+v\n  live: %+v", app, snaps[0], want)
		}
	}
}
