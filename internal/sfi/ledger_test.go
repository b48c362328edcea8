package sfi

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/workload"
)

func TestOutcomeTextRoundTrip(t *testing.T) {
	for o := Outcome(0); o < numOutcomes; o++ {
		b, err := o.MarshalText()
		if err != nil {
			t.Fatalf("%v: marshal: %v", o, err)
		}
		if string(b) != o.String() {
			t.Errorf("%v: marshal produced %q, want String() %q", o, b, o.String())
		}
		var back Outcome
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%v: unmarshal %q: %v", o, b, err)
		}
		if back != o {
			t.Errorf("round trip %v -> %q -> %v", o, b, back)
		}
	}
	if _, err := numOutcomes.MarshalText(); err == nil {
		t.Error("marshaling an out-of-range outcome must error")
	}
	var o Outcome
	if err := o.UnmarshalText([]byte("meltdown")); err == nil {
		t.Error("unmarshaling an unknown outcome name must error")
	}
	if err := o.UnmarshalText([]byte("?")); err == nil {
		t.Error(`the "?" placeholder must not unmarshal`)
	}
}

// TestCampaignRejectsNegativeDmax covers the rejection of negative
// campaign and masking parameters and of a campaign bit width outside
// [0, 64]; a zero trial count or width keeps the default, but a negative
// one is an error rather than a silent default.
func TestCampaignRejectsNegativeDmax(t *testing.T) {
	res, art := compileApp(t, "rawcaudio")
	build, _ := buildOf(t, "rawcaudio")
	for _, c := range []struct {
		name string
		run  func() error
		want string
	}{
		{"campaign dmax", func() error {
			_, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{Trials: 5, Dmax: -1})
			return err
		}, "negative Dmax"},
		{"campaign trials", func() error {
			_, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{Trials: -3})
			return err
		}, "negative trial count"},
		{"campaign negative bits", func() error {
			_, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{Trials: 5, Bits: -1})
			return err
		}, "Bits -1 outside"},
		{"campaign bits above 64", func() error {
			_, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{Trials: 5, Bits: 65})
			return err
		}, "Bits 65 outside"},
		{"masking trials", func() error {
			_, err := MeasureMasking(build, MaskingConfig{Trials: -3})
			return err
		}, "negative trial count"},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestCampaignMaxDmax: at Dmax = 2⁶³−1 a trial's detection latency is
// still drawn uniformly over [0, Dmax], where the overflowing Dmax+1
// used to give every trial latency 0.
func TestCampaignMaxDmax(t *testing.T) {
	res, art := compileApp(t, "rawcaudio")
	_, recs := collect(t, res, art.Outputs, CampaignConfig{Trials: 8, Seed: 7, Dmax: math.MaxInt64, Obs: obs.NewRegistry()})
	for _, rec := range recs {
		if rec.Latency == 0 {
			t.Errorf("trial %d: latency 0 at Dmax 2⁶³−1", rec.Trial)
		}
	}
}

// trialKeys is the pinned TrialRecord JSONL schema: golden field names in
// golden order. Changing the trace format is a deliberate act — update
// this list and the docs together.
var trialKeys = []string{
	"type", "trial", "inject_at", "bit", "latency",
	"injected", "fn", "block", "index", "count", "is_mem", "mem_addr",
	"reg", "region_id", "instance", "class",
	"detected", "detect_count", "propagated", "detect_region_id",
	"rolled_back", "same_instance", "target_region", "unwound",
	"rollback_distance", "reexec_instrs", "outcome",
}

// topLevelKeys returns the top-level object keys of one JSON line in
// encounter order.
func topLevelKeys(t *testing.T, line []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		t.Fatalf("line is not a JSON object: %v %q", err, line)
	}
	var keys []string
	depth := 0
	for dec.More() || depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("token: %v in %q", err, line)
		}
		switch d := tok.(type) {
		case json.Delim:
			if d == '{' || d == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if depth == 0 {
				keys = append(keys, d)
				// Skip the value (may itself be an object/array).
				var v json.RawMessage
				if err := dec.Decode(&v); err != nil {
					t.Fatalf("value of %q: %v", d, err)
				}
			}
		}
	}
	return keys
}

func runTraced(t *testing.T, workers int) []byte {
	t.Helper()
	sp, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var regions []RegionInfo
	for _, rc := range res.RegionCoverages(100) {
		regions = append(regions, RegionInfo{
			ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
			Selected: rc.Selected, DynFrac: rc.DynFrac,
			InstanceLen: rc.InstanceLen, Alpha: rc.Alpha,
		})
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
		Trials: 40, Seed: 1, Dmax: 100, Workers: workers,
		App: "rawcaudio", Regions: regions, Trace: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Err() != nil {
		t.Fatalf("sink error: %v", sink.Err())
	}
	if camp.Executed != camp.Trials {
		t.Fatalf("executed %d of %d trials", camp.Executed, camp.Trials)
	}
	return buf.Bytes()
}

// TestTraceGoldenSchema pins the JSONL trace format: a campaign header
// line followed by exactly one trial line per trial, each trial line
// carrying the golden field set in golden order.
func TestTraceGoldenSchema(t *testing.T) {
	out := runTraced(t, 1)
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	if len(lines) != 1+40 {
		t.Fatalf("got %d trace lines, want 1 header + 40 trials", len(lines))
	}
	var head struct {
		Type         string  `json:"type"`
		App          string  `json:"app"`
		Trials       int     `json:"trials"`
		GoldenInstrs int64   `json:"golden_instrs"`
		PredCoverage float64 `json:"pred_coverage"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil {
		t.Fatal(err)
	}
	if head.Type != TraceCampaign || head.App != "rawcaudio" || head.Trials != 40 || head.GoldenInstrs <= 0 {
		t.Fatalf("bad header: %+v", head)
	}
	if head.PredCoverage <= 0 || head.PredCoverage > 1 {
		t.Fatalf("implausible predicted coverage %g", head.PredCoverage)
	}
	for i, line := range lines[1:] {
		keys := topLevelKeys(t, line)
		if len(keys) != len(trialKeys) {
			t.Fatalf("trial %d: %d keys, want %d: %v", i, len(keys), len(trialKeys), keys)
		}
		for j, k := range keys {
			if k != trialKeys[j] {
				t.Fatalf("trial %d: key %d is %q, want %q", i, j, k, trialKeys[j])
			}
		}
		var rec TrialEnvelope
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if rec.Type != TraceTrial || rec.Trial != i {
			t.Fatalf("trial %d: bad envelope type=%q trial=%d", i, rec.Type, rec.Trial)
		}
		if rec.Detected && rec.Propagated != rec.DetectCount-rec.Count {
			t.Fatalf("trial %d: propagated %d != detect %d - inject %d",
				i, rec.Propagated, rec.DetectCount, rec.Count)
		}
		if rec.Outcome == Recovered && (!rec.RolledBack || rec.RollbackDistance < 0) {
			t.Fatalf("trial %d: recovered without a sane rollback: %+v", i, rec.TrialRecord)
		}
	}
}

// TestTraceDeterministicAcrossWorkers requires byte-identical traces for
// the same seed regardless of worker count — records are filled by trial
// index, not completion order.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	a := runTraced(t, 1)
	b := runTraced(t, 4)
	c := runTraced(t, 4)
	if !bytes.Equal(a, b) {
		t.Error("trace differs between 1 and 4 workers for the same seed")
	}
	if !bytes.Equal(b, c) {
		t.Error("trace differs across identical runs")
	}
}
