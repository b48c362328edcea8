package sfi

import (
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/workload"
)

// TestPartitionGeometry: the K shards' Bounds must tile the trial space
// exactly — contiguous, ordered, no gaps, no overlap — for any K,
// including K larger than the trial count.
func TestPartitionGeometry(t *testing.T) {
	for _, tc := range []struct{ trials, k int }{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {10, 10}, {7, 13}, {1000, 7}, {1000000, 1000},
	} {
		next := 0
		for i := 1; i <= tc.k; i++ {
			lo, hi := ShardRange{Index: i, Count: tc.k}.Bounds(tc.trials)
			if lo != next || hi < lo {
				t.Errorf("%d trials, shard %d/%d: [%d,%d), want it to start at %d", tc.trials, i, tc.k, lo, hi, next)
			}
			next = hi
		}
		if next != tc.trials {
			t.Errorf("%d trials in %d shards cover [0,%d)", tc.trials, tc.k, next)
		}
	}
}

// TestParseShard exercises the -shard i/K syntax, including every
// rejection the CLI relies on.
func TestParseShard(t *testing.T) {
	if i, k, err := ParseShard(""); err != nil || i != 0 || k != 0 {
		t.Errorf("empty spec: %d %d %v", i, k, err)
	}
	if i, k, err := ParseShard("2/3"); err != nil || i != 2 || k != 3 {
		t.Errorf("2/3: %d %d %v", i, k, err)
	}
	if i, k, err := ParseShard("1/1"); err != nil || i != 1 || k != 1 {
		t.Errorf("1/1: %d %d %v", i, k, err)
	}
	for _, bad := range []string{"3/2", "0/0", "0/3", "-1/3", "1/-3", "1/0", "a/b", "1", "1/2/3", "/", "2/"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) must error", bad)
		}
	}
}

// TestShardConfigValidation: RunCampaign must reject a shard index
// outside [1, Count] and the shard+adaptive combination.
func TestShardConfigValidation(t *testing.T) {
	sp, err := workload.ByName("g721encode")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{Trials: 30, Seed: 5, Dmax: 50}
	run := func(mut func(*CampaignConfig)) error {
		cfg := base
		mut(&cfg)
		_, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
		return err
	}
	if err := run(func(c *CampaignConfig) { c.Shard = &ShardRange{Index: 2, Count: 3} }); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*CampaignConfig)
		want string
	}{
		{"index above count", func(c *CampaignConfig) { c.Shard = &ShardRange{Index: 4, Count: 3} }, "out of range"},
		{"index zero", func(c *CampaignConfig) { c.Shard = &ShardRange{Index: 0, Count: 3} }, "out of range"},
		{"count zero", func(c *CampaignConfig) { c.Shard = &ShardRange{Index: 1} }, "out of range"},
		{"shard with adaptive", func(c *CampaignConfig) { c.Shard = &ShardRange{Index: 1, Count: 3}; c.Stop = &Stopper{} }, "adaptive"},
		{"negative round", func(c *CampaignConfig) { c.Stop = &Stopper{Round: -1} }, ""},
		{"negative target", func(c *CampaignConfig) { c.Stop = &Stopper{TargetCI: -0.1} }, ""},
	}
	for _, tc := range cases {
		err := run(tc.mut)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestShardRecordsMatchSingle: the records a shard delivers must be the
// corresponding slice of the single-process campaign's records — the
// library-level half of the byte-identical-merge guarantee.
func TestShardRecordsMatchSingle(t *testing.T) {
	sp, err := workload.ByName("g721encode")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 45
	base := CampaignConfig{Trials: trials, Seed: 5, Dmax: 50}
	_, single := collect(t, res, art.Outputs, base)
	seen := 0
	for i := 1; i <= 4; i++ {
		cfg := base
		cfg.Shard = &ShardRange{Index: i, Count: 4}
		lo, hi := cfg.Shard.Bounds(trials)
		camp, recs := collect(t, res, art.Outputs, cfg)
		if camp.Executed != hi-lo {
			t.Errorf("shard %d executed %d of [%d,%d)", i, camp.Executed, lo, hi)
		}
		if len(recs) != camp.Executed {
			t.Fatalf("shard %d delivered %d records for %d trials", i, len(recs), camp.Executed)
		}
		for j, rec := range recs {
			if rec != single[lo+j] {
				t.Fatalf("shard %d trial %d differs from single-process record:\n shard: %+v\nsingle: %+v",
					i, lo+j, rec, single[lo+j])
			}
		}
		seen += camp.Executed
	}
	if seen != trials {
		t.Errorf("shards executed %d of %d trials", seen, trials)
	}
}
