package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricsJSON runs the real table1 experiment through runBench with
// "-metrics -" and checks the snapshot appended to stdout is valid JSON
// with the documented top-level sections and the expected span/counter
// families.
func TestMetricsJSON(t *testing.T) {
	var out bytes.Buffer
	err := runBench([]string{"-exp", "table1", "-table1-app", "rawcaudio", "-quick", "-metrics", "-"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot is the indented JSON object trailing the rendered
	// experiment table; it always opens with the counters section.
	text := out.String()
	idx := strings.LastIndex(text, "{\n  \"counters\"")
	if idx < 0 {
		t.Fatalf("no metrics JSON in output:\n%s", text)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal([]byte(text[idx:]), &snap); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	for _, key := range []string{"counters", "histograms", "spans"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics JSON missing top-level key %q", key)
		}
	}

	type named struct {
		Name string `json:"name"`
	}
	nameSet := func(key string) map[string]bool {
		var rows []named
		if err := json.Unmarshal(snap[key], &rows); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		set := map[string]bool{}
		for _, r := range rows {
			set[r.Name] = true
		}
		return set
	}
	spans := nameSet("spans")
	// The harness compiles through the staged pipeline: analysis and
	// finalization report as separate span roots (a monolithic "compile"
	// span appears only for direct core.Compile calls).
	for _, want := range []string{"bench/table1", "compile/analyze", "compile/analyze/profile", "compile/finalize", "compile/finalize/select"} {
		if !spans[want] {
			t.Errorf("missing span %q (have %v)", want, spans)
		}
	}
	counters := nameSet("counters")
	for _, want := range []string{"compile.analyze.runs", "compile.finalize.runs", "compile.region.candidates", "interp.instrs.total"} {
		if !counters[want] {
			t.Errorf("missing counter %q", want)
		}
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	var out bytes.Buffer
	err := runBench([]string{"-exp", "table1", "-engine", "jit"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("want an unknown-engine error, got %v", err)
	}
}

// TestEngineFlagRuns drives one real experiment under the reference
// engine: the harness must thread -engine through its compile and
// measurement caches and still render the exhibit.
func TestEngineFlagRuns(t *testing.T) {
	var out bytes.Buffer
	err := runBench([]string{"-exp", "table1", "-table1-app", "rawcaudio", "-quick", "-engine", "ref"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Encore") {
		t.Fatalf("no Table 1 rows in output:\n%s", out.String())
	}
}

// TestJSONReportEmbedsMetrics checks the -json report carries the
// observability snapshot under "metrics" (the standalone -metrics flag is
// covered above).
func TestJSONReportEmbedsMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.json")
	var out bytes.Buffer
	err := runBench([]string{"-exp", "table1", "-table1-app", "rawcaudio", "-quick", "-json", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		AnalyzeNS  int64 `json:"analyze_ns"`
		FinalizeNS int64 `json:"finalize_ns"`

		Experiments []struct {
			Name string `json:"name"`
		} `json:"experiments"`
		Metrics *struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "table1" {
		t.Fatalf("unexpected experiments: %+v", rep.Experiments)
	}
	if rep.Metrics == nil || len(rep.Metrics.Counters) == 0 {
		t.Fatal("report has no embedded metrics snapshot")
	}
	found := false
	for _, c := range rep.Metrics.Counters {
		if c.Name == "compile.analyze.runs" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("embedded snapshot lacks a positive compile.analyze.runs counter")
	}
	if rep.AnalyzeNS <= 0 || rep.FinalizeNS <= 0 {
		t.Errorf("staged timing fields not populated: analyze_ns=%d finalize_ns=%d", rep.AnalyzeNS, rep.FinalizeNS)
	}
}
