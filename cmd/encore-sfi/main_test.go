package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encore/internal/stats"
)

// TestNegativeDmaxRejected covers the campaign-shape flags the command
// rejects before running anything: a negative -dmax and a -trials below
// one (which the library would otherwise turn into its 200-trial
// default).
func TestNegativeDmaxRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "3", "-dmax", "-5"}, "negative"},
		{[]string{"-trials", "0"}, "-trials 0"},
		{[]string{"-trials", "-3"}, "-trials -3"},
	} {
		var out, errOut bytes.Buffer
		err := runSFI(append([]string{"-app", "rawcaudio"}, c.args...), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want an error mentioning %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting", c.args, out.String())
		}
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	err := runSFI([]string{"-app", "rawcaudio", "-trials", "3", "-engine", "jit"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("want an unknown-engine error, got %v", err)
	}
}

// TestEngineInvariantTable runs the same campaign under each engine and
// requires an identical outcome table: the -engine flag may only move
// wall-clock, never results.
func TestEngineInvariantTable(t *testing.T) {
	run := func(engine string) string {
		var out, errOut bytes.Buffer
		args := []string{"-app", "rawcaudio", "-trials", "8", "-seed", "3"}
		if engine != "" {
			args = append(args, "-engine", engine)
		}
		if err := runSFI(args, &out, &errOut); err != nil {
			t.Fatalf("-engine %s: %v", engine, err)
		}
		return out.String()
	}
	want := run("")
	for _, engine := range []string{"fast", "ref"} {
		if got := run(engine); got != want {
			t.Errorf("-engine %s table diverges:\n%s\nvs default:\n%s", engine, got, want)
		}
	}
}

// TestTraceStdoutDeterministic runs the command twice with the same seed
// and requires byte-identical JSONL on stdout — the acceptance bar for
// downstream tooling — with the human table diverted to stderr.
func TestTraceStdoutDeterministic(t *testing.T) {
	run := func() (string, string) {
		var out, errOut bytes.Buffer
		if err := runSFI([]string{"-app", "rawcaudio", "-trials", "8", "-seed", "1", "-trace", "-"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String(), errOut.String()
	}
	out1, tbl1 := run()
	out2, _ := run()
	if out1 != out2 {
		t.Fatal("trace stdout differs across identical runs")
	}
	lines := strings.Split(strings.TrimRight(out1, "\n"), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("got %d trace lines, want 1 header + 8 trials", len(lines))
	}
	for _, l := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(l), &v); err != nil {
			t.Fatalf("non-JSON trace line %q: %v", l, err)
		}
	}
	if !strings.Contains(tbl1, "recovered") {
		t.Error("human table should have moved to stderr")
	}
	if strings.Contains(out1, "app\trecovered") {
		t.Error("human table leaked into the JSONL stream")
	}
}

// TestReportMode writes a trace to a file and feeds it back through
// -report, checking the per-region measured-vs-predicted table.
func TestReportMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-app", "g721encode", "-trials", "30", "-seed", "2", "-trace", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := runSFI([]string{"-report", path}, &rep, &errOut); err != nil {
		t.Fatal(err)
	}
	text := rep.String()
	for _, want := range []string{"app g721encode", "30 trials", "measured same-instance", "alpha", "|err|"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	var js bytes.Buffer
	if err := runSFI([]string{"-report", path, "-json"}, &js, &errOut); err != nil {
		t.Fatal(err)
	}
	var reps []struct {
		App          string  `json:"app"`
		PredCoverage float64 `json:"pred_coverage"`
		Regions      []struct {
			Alpha  float64 `json:"alpha"`
			AbsErr float64 `json:"abs_err"`
		} `json:"regions"`
	}
	if err := json.Unmarshal(js.Bytes(), &reps); err != nil {
		t.Fatalf("JSON report: %v", err)
	}
	if len(reps) != 1 || reps[0].App != "g721encode" || len(reps[0].Regions) == 0 {
		t.Fatalf("JSON report shape: %+v", reps)
	}
	if reps[0].PredCoverage <= 0 || reps[0].PredCoverage > 1 {
		t.Errorf("implausible predicted coverage %g", reps[0].PredCoverage)
	}
}

// TestReportGolden pins -report and -report -json bytes on a hand-made
// ledger of three campaigns: one with header regions, an unhashed and
// an unstruck region, a strike outside every region and one in a region
// the header does not list; one with no plan and no regions, whose
// trial count falls back to its one record and whose regions are null;
// and one with a plan but no records, whose outcomes are {}.
func TestReportGolden(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-report", "testdata/report.jsonl"}, "testdata/report.golden.txt"},
		{[]string{"-report", "testdata/report.jsonl", "-json"}, "testdata/report.golden.json"},
	} {
		var out, errOut bytes.Buffer
		if err := runSFI(c.args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v differs from %s:\n%s", c.args, c.golden, out.Bytes())
		}
	}
}

func TestReportModeErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-report", filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errOut); err == nil {
		t.Error("missing trace file must error")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSFI([]string{"-report", empty}, &out, &errOut); err == nil || !strings.Contains(err.Error(), "no campaigns") {
		t.Errorf("empty trace: %v", err)
	}
}

// TestChromeTraceFlag checks -chrometrace produces a well-formed
// chrome://tracing array including the campaign span.
func TestChromeTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "3", "-chrometrace", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	found := false
	for _, e := range events {
		if e.Name == "sfi/campaign" && e.Ph == "X" {
			found = true
		}
	}
	if !found {
		t.Errorf("no sfi/campaign complete event in %s", data)
	}
}

// TestStatsFlagDeterministic locks the tentpole acceptance bar at the
// command level: -stats output is byte-identical across -workers and
// -engine, and parses back as estimator snapshots.
func TestStatsFlagDeterministic(t *testing.T) {
	run := func(extra ...string) string {
		var out, errOut bytes.Buffer
		args := append([]string{"-app", "rawcaudio", "-trials", "12", "-seed", "5", "-stats", "-"}, extra...)
		if err := runSFI(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(errOut.String(), "recovered") {
			t.Error("human table should have moved to stderr when -stats owns stdout")
		}
		return out.String()
	}
	want := run("-workers", "1")
	for _, extra := range [][]string{
		{"-workers", "4"},
		{"-workers", "8"},
		{"-workers", "4", "-engine", "ref"},
	} {
		if got := run(extra...); got != want {
			t.Errorf("-stats output diverges under %v", extra)
		}
	}
	var snaps []*stats.Snapshot
	if err := json.Unmarshal([]byte(want), &snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].App != "rawcaudio" || snaps[0].Trials != 12 {
		t.Fatalf("unexpected snapshots: %+v", snaps)
	}
}

func TestStatsAndTraceBothOnStdoutRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	err := runSFI([]string{"-app", "rawcaudio", "-trials", "3", "-stats", "-", "-trace", "-"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "stdout") {
		t.Fatalf("want a stdout-conflict error, got %v", err)
	}
}

// TestPromFlag checks the -prom exposition contains the SFI counters.
func TestPromFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "3", "-prom", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The command reports into the shared obs.Default() registry, so
	// counter values accumulate across tests in one process — assert the
	// family and a sample line exist, not an exact value.
	for _, want := range []string{"# TYPE encore_sfi_trials counter", "\nencore_sfi_trials "} {
		if !strings.Contains(string(data), want) {
			t.Errorf("prom exposition missing %q:\n%s", want, data)
		}
	}
}

// TestShardFlagValidation covers the -shard rejection surface: the
// index must land inside [1, K], both parts must parse, and the flag is
// incompatible with -adaptive.
func TestShardFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string
	}{
		{"3/2", "shard"},
		{"0/0", "shard"},
		{"0/3", "shard"},
		{"-1/3", "shard"},
		{"1/-3", "shard"},
		{"a/b", "shard"},
		{"1", "shard"},
	} {
		var out, errOut bytes.Buffer
		err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "-shard", tc.spec}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-shard %s: want a shard error, got %v", tc.spec, err)
		}
	}
	var out, errOut bytes.Buffer
	err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "-shard", "1/2", "-adaptive"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "adaptive") {
		t.Fatalf("-shard with -adaptive: %v", err)
	}
	// Without -app every campaign would land in each shard ledger, which
	// -merge cannot take back; the flag check must refuse before any run.
	out.Reset()
	if err := runSFI([]string{"-trials", "6", "-shard", "1/3"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "-app") || out.Len() > 0 {
		t.Fatalf("-shard without -app: err %v, %d bytes written", err, out.Len())
	}
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "stray.jsonl"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray positional args: %v", err)
	}
}

// TestMergeModeByteIdentical is the end-to-end acceptance check at the
// command level: three -shard runs, merged with -merge in permuted
// order, must reproduce the single-process -trace and -stats output
// byte for byte.
func TestMergeModeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	single := filepath.Join(dir, "single.jsonl")
	singleStats := filepath.Join(dir, "single.stats")
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "30", "-seed", "4",
		"-trace", single, "-stats", singleStats}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	shards := make([]string, 3)
	for i := range shards {
		shards[i] = filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i+1))
		if err := runSFI([]string{"-app", "rawcaudio", "-trials", "30", "-seed", "4",
			"-shard", fmt.Sprintf("%d/3", i+1), "-trace", shards[i]}, &out, &errOut); err != nil {
			t.Fatalf("shard %d: %v", i+1, err)
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	mergedStats := filepath.Join(dir, "merged.stats")
	if err := runSFI([]string{"-merge", "-trace", merged, "-stats", mergedStats,
		shards[2], shards[0], shards[1]}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{single, merged}, {singleStats, mergedStats}} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s and %s differ", pair[0], pair[1])
		}
	}
}

// TestMergeModeErrors covers the merge-mode rejection surface.
func TestMergeModeErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-merge"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "no shard ledgers") {
		t.Errorf("merge without files: %v", err)
	}
	if err := runSFI([]string{"-merge", "-report", "x.jsonl", "a.jsonl"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("merge with report: %v", err)
	}
	if err := runSFI([]string{"-merge", "-stats", "-", "a.jsonl"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "stdout") {
		t.Errorf("merge ledger and stats both on stdout: %v", err)
	}
	if err := runSFI([]string{"-merge", "-trace", filepath.Join(t.TempDir(), "out.jsonl"),
		filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errOut); err == nil {
		t.Error("merge with a missing shard file must error")
	}

	// With -stats the replay reads the merge as it is written: an error
	// on either side must stop both and surface.
	dir := t.TempDir()
	shard := func(name string, lines ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	header := `{"type":"campaign","app":"x","trials":4}`
	trial := func(i int) string { return fmt.Sprintf(`{"type":"trial","trial":%d,"outcome":"benign"}`, i) }
	for _, c := range []struct {
		shards []string
		want   string
	}{
		{[]string{shard("bad.jsonl", header, `{"type":"trial","trial":0,"outcome":"bogus"}`)}, "merge: sfi: ledger line 2"},
		{[]string{shard("even.jsonl", header, trial(0), trial(2)), shard("odd.jsonl", header, trial(1), trial(3))}, "must not interleave"},
	} {
		args := append([]string{"-merge", "-trace", filepath.Join(dir, "m.jsonl"), "-stats", filepath.Join(dir, "s.json")}, c.shards...)
		if err := runSFI(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-merge -stats %v: error %v, want %q", c.shards, err, c.want)
		}
	}
}

// TestAdaptiveFlagDeterministic: the -adaptive ledger must be
// byte-identical across -workers and -engine, skip a meaningful share
// of the trial space, and -reuse of that ledger must skip even more.
func TestAdaptiveFlagDeterministic(t *testing.T) {
	dir := t.TempDir()
	run := func(path string, extra ...string) string {
		var out, errOut bytes.Buffer
		args := append([]string{"-app", "g721encode", "-trials", "300", "-seed", "7",
			"-adaptive", "-adaptive-ci", "0.12", "-trace", path}, extra...)
		if err := runSFI(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a := filepath.Join(dir, "a.jsonl")
	tbl := run(a, "-workers", "1")
	if !strings.Contains(tbl, "adaptive g721encode: executed") {
		t.Errorf("no adaptive summary line in table output:\n%s", tbl)
	}
	b := filepath.Join(dir, "b.jsonl")
	run(b, "-workers", "5", "-engine", "ref")
	wantBytes, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Error("adaptive ledger differs across -workers/-engine")
	}

	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-app", "g721encode", "-trials", "300", "-seed", "7",
		"-adaptive", "-adaptive-ci", "0.12", "-reuse", a}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped 300") {
		t.Errorf("reusing a converged ledger should skip every trial:\n%s", out.String())
	}
}

// TestAdaptiveFlagErrors covers the adaptive flag rejection surface.
func TestAdaptiveFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "-adaptive-ci", "-0.1"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("negative -adaptive-ci: %v", err)
	}
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "-adaptive-round", "-2"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("negative -adaptive-round: %v", err)
	}
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "-reuse", "x.jsonl"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "-adaptive") {
		t.Errorf("-reuse without -adaptive: %v", err)
	}
	if err := runSFI([]string{"-app", "rawcaudio", "-trials", "6", "-adaptive",
		"-reuse", filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errOut); err == nil {
		t.Error("-reuse with a missing file must error")
	}
}
