package attrib

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

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
// the single-process ledger, and the stats replay of the merged stream
// must agree with batch attribution float for float.
func TestMergeByteIdentical(t *testing.T) {
	const trials = 40
	for _, app := range []string{"g721encode", "175.vpr", "rawdaudio"} {
		fx := buildFixture(t, app)
		base := sfi.CampaignConfig{Trials: trials, Seed: 13, Dmax: 100}
		single := fx.ledger(t, base)
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
							if err := MergeTraces(&merged, readers...); err != nil {
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

		// Stats replay of the merged stream vs batch attribution: the
		// single ledger IS a valid merged stream (merge of one shard), so
		// replaying it must reproduce Attribute exactly.
		campaigns, err := ReadTrace(bytes.NewReader(single))
		if err != nil {
			t.Fatal(err)
		}
		if len(campaigns) != 1 {
			t.Fatalf("%d campaigns in single ledger", len(campaigns))
		}
		fromStats := FromStats(stats.Replay(campaigns[0].Meta, campaigns[0].Records).Snapshot())
		direct := Attribute(campaigns[0])
		if !reflect.DeepEqual(fromStats, direct) {
			t.Errorf("%s: FromStats(Replay(merged)) != Attribute(merged):\n stats: %+v\ndirect: %+v", app, fromStats, direct)
		}
	}
}

// TestMergeErrors nails the rejection surface: duplicated trials,
// diverging headers, missing headers, trial-before-header, and unknown
// record types.
func TestMergeErrors(t *testing.T) {
	header := `{"type":"campaign","app":"x","trials":4,"seed":1}`
	trial := func(i int) string { return fmt.Sprintf(`{"type":"trial","trial":%d}`, i) }
	shard := func(lines ...string) io.Reader { return strings.NewReader(strings.Join(lines, "\n") + "\n") }
	cases := []struct {
		name   string
		shards []io.Reader
		want   string
	}{
		{"no shards", nil, "no shard"},
		{"duplicate trial", []io.Reader{shard(header, trial(0)), shard(header, trial(0))}, "more than one shard"},
		{"header mismatch", []io.Reader{shard(header, trial(0)), shard(`{"type":"campaign","app":"y"}`, trial(1))}, "header differs"},
		{"missing header", []io.Reader{shard(trial(0))}, "before the campaign header"},
		{"empty shard", []io.Reader{shard(header, trial(0)), strings.NewReader("")}, "no campaign header"},
		{"second header", []io.Reader{shard(header, trial(0), header)}, "second campaign header"},
		{"unknown type", []io.Reader{shard(header, `{"type":"meltdown"}`)}, "unknown record type"},
		{"malformed json", []io.Reader{shard(header, "not json")}, "invalid character"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := MergeTraces(&out, tc.shards...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Gaps are not errors: adaptive campaigns skip trials by design.
	var out bytes.Buffer
	if err := MergeTraces(&out, shard(header, trial(0), trial(3))); err != nil {
		t.Errorf("gapped trial space must merge cleanly: %v", err)
	}
}

// FuzzMergeCommutes: for arbitrary byte inputs, merging (a, b) and
// (b, a) must either both fail or produce identical output — the
// permutation invariance MergeTraces documents.
func FuzzMergeCommutes(f *testing.F) {
	header := `{"type":"campaign","app":"x","trials":4,"seed":1}`
	f.Add([]byte(header+"\n{\"type\":\"trial\",\"trial\":0}\n"), []byte(header+"\n{\"type\":\"trial\",\"trial\":1}\n"))
	f.Add([]byte(header+"\n"), []byte(header+"\n{\"type\":\"trial\",\"trial\":3}\n"))
	f.Add([]byte("not json\n"), []byte(header+"\n"))
	f.Add([]byte(""), []byte(""))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ab, ba bytes.Buffer
		errAB := MergeTraces(&ab, bytes.NewReader(a), bytes.NewReader(b))
		errBA := MergeTraces(&ba, bytes.NewReader(b), bytes.NewReader(a))
		if (errAB == nil) != (errBA == nil) {
			t.Fatalf("merge commutativity broken: (a,b) err=%v, (b,a) err=%v", errAB, errBA)
		}
		if errAB == nil && !bytes.Equal(ab.Bytes(), ba.Bytes()) {
			t.Fatalf("merge output depends on argument order:\n(a,b): %q\n(b,a): %q", ab.Bytes(), ba.Bytes())
		}
	})
}
