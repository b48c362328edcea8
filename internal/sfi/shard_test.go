package sfi

import (
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/workload"
)

// TestPartitionGeometry: every partition must tile the trial space
// exactly — contiguous, ordered, no gaps, no overlap — for any K,
// including K larger than the trial count.
func TestPartitionGeometry(t *testing.T) {
	for _, tc := range []struct{ trials, k int }{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {10, 10}, {7, 13}, {1000, 7},
	} {
		shards, err := Partition(42, tc.trials, tc.k)
		if err != nil {
			t.Fatalf("Partition(%d,%d): %v", tc.trials, tc.k, err)
		}
		if len(shards) != tc.k {
			t.Fatalf("Partition(%d,%d): %d shards", tc.trials, tc.k, len(shards))
		}
		next := 0
		for i, sh := range shards {
			if sh.Index != i+1 || sh.Count != tc.k || sh.Seed != 42 {
				t.Errorf("shard %d identity: %+v", i, sh)
			}
			if sh.Lo != next || sh.Hi < sh.Lo {
				t.Errorf("shard %d not contiguous: %+v (want Lo=%d)", i, sh, next)
			}
			next = sh.Hi
		}
		if next != tc.trials {
			t.Errorf("Partition(%d,%d) covers [0,%d)", tc.trials, tc.k, next)
		}
	}
	if _, err := Partition(1, 10, 0); err == nil {
		t.Error("K=0 must error")
	}
	if _, err := Partition(1, -1, 2); err == nil {
		t.Error("negative trials must error")
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

// TestShardConfigValidation: RunCampaign must reject shard ranges that
// do not belong to this campaign's partition, and the shard+adaptive
// combination.
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
	shards, err := Partition(base.Seed, base.Trials, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(func(c *CampaignConfig) { c.Shard = &shards[1] }); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*CampaignConfig)
		want string
	}{
		{"seed mismatch", func(c *CampaignConfig) { sh := shards[0]; sh.Seed = 99; c.Shard = &sh }, "seed"},
		{"geometry mismatch", func(c *CampaignConfig) { sh := shards[0]; sh.Hi++; c.Shard = &sh }, ""},
		{"index out of range", func(c *CampaignConfig) { sh := shards[0]; sh.Index = 4; c.Shard = &sh }, ""},
		{"shard with adaptive", func(c *CampaignConfig) { c.Shard = &shards[0]; c.Stop = &Stopper{} }, "adaptive"},
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
	shards, err := Partition(base.Seed, trials, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i := range shards {
		cfg := base
		cfg.Shard = &shards[i]
		camp, recs := collect(t, res, art.Outputs, cfg)
		if camp.Executed != shards[i].Hi-shards[i].Lo {
			t.Errorf("shard %d executed %d of [%d,%d)", i+1, camp.Executed, shards[i].Lo, shards[i].Hi)
		}
		if len(recs) != camp.Executed {
			t.Fatalf("shard %d delivered %d records for %d trials", i+1, len(recs), camp.Executed)
		}
		for j, rec := range recs {
			if rec != single[shards[i].Lo+j] {
				t.Fatalf("shard %d trial %d differs from single-process record:\n shard: %+v\nsingle: %+v",
					i+1, shards[i].Lo+j, rec, single[shards[i].Lo+j])
			}
		}
		seen += camp.Executed
	}
	if seen != trials {
		t.Errorf("shards executed %d of %d trials", seen, trials)
	}
}
