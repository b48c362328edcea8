// Command encore-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	encore-bench [-exp fig1|table1|fig5|fig6|fig7a|fig7b|fig8|all]
//	             [-apps a,b,c] [-quick] [-engine fast|ref]
//	             [-table1-app name] [-json file]
//	             [-metrics file|-] [-prom file|-] [-chrometrace file|-]
//	             [-cpuprofile file] [-memprofile file]
//
// Each experiment prints the same rows/series as the corresponding paper
// exhibit; see EXPERIMENTS.md for the paper-vs-measured comparison.
// With -json, a machine-readable report — per-experiment wall-clock plus
// the full result dataset — is additionally written to the given file.
// With -metrics, the process-wide observability snapshot (per-stage
// compile spans, heuristic counters, interpreter and SFI totals; see
// DESIGN.md §9) is written as JSON to the given file, or to stdout for
// "-"; -prom writes the same snapshot in the Prometheus text exposition
// format. The -json report embeds the same snapshot under "metrics".
// -chrometrace records per-experiment span timings and writes a
// chrome://tracing JSON array to the given file. -cpuprofile and
// -memprofile write pprof profiles of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"encore/internal/experiments"
	"encore/internal/interp"
	"encore/internal/obs"
)

// renderable is what every experiment result implements.
type renderable interface{ Render(w io.Writer) }

// expReport is one experiment's entry in the -json report.
type expReport struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Result any     `json:"result"`
}

// report is the top-level -json document.
type report struct {
	Quick       bool        `json:"quick"`
	Apps        []string    `json:"apps,omitempty"`
	TotalWallMS float64     `json:"total_wall_ms"`
	Experiments []expReport `json:"experiments"`

	// Staged-pipeline wall-clock totals, summed across every compile of
	// the run (from the "compile", "compile/analyze", and
	// "compile/finalize" span aggregates). CompileNS covers only full
	// core.Compile calls; sweeps that replay a memoized analysis appear
	// under FinalizeNS without a matching AnalyzeNS share, which is the
	// reuse these fields exist to make visible.
	CompileNS  int64 `json:"compile_ns"`
	AnalyzeNS  int64 `json:"analyze_ns"`
	FinalizeNS int64 `json:"finalize_ns"`

	// Metrics embeds the end-of-run observability snapshot, so a single
	// -json artifact carries results and the counters/spans behind them.
	// The standalone -metrics flag still works independently.
	Metrics *obs.Snapshot `json:"metrics"`
}

func main() {
	if err := runBench(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "encore-bench:", err)
		os.Exit(1)
	}
}

// runBench is the whole command behind a testable seam: flags come from
// argv, experiment tables and "-metrics -" output go to stdout.
func runBench(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("encore-bench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: fig1, table1, fig5, fig6, fig7a, fig7b, fig8, abl-eta, abl-budget, abl-signature, abl-detector, abl-input, engines, served, sharded, all")
		apps       = fs.String("apps", "", "comma-separated benchmark subset")
		quick      = fs.Bool("quick", false, "reduced Monte-Carlo trials")
		engine     = fs.String("engine", "", "execution engine for measurement runs: fast or ref (results are engine-invariant)")
		t1app      = fs.String("table1-app", "175.vpr", "workload for the Table 1 comparison")
		jsonPath   = fs.String("json", "", "write a JSON report (wall-clock + results) to this file")
		metrics    = fs.String("metrics", "", "write the observability snapshot as JSON to this file (- = stdout)")
		prom       = fs.String("prom", "", "write the observability snapshot in Prometheus text format to this file (- = stdout)")
		chrome     = fs.String("chrometrace", "", "write a chrome://tracing span timeline to this file (- = stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		return err
	}
	h := &experiments.Harness{Quick: *quick, Engine: eng}
	if *apps != "" {
		h.Apps = strings.Split(*apps, ",")
	}

	run := func(name string) (renderable, error) {
		switch name {
		case "fig1":
			return h.Fig1()
		case "table1":
			return h.Table1(*t1app)
		case "fig5":
			return h.Fig5()
		case "fig6":
			return h.Fig6()
		case "fig7a":
			return h.Fig7a()
		case "fig7b":
			return h.Fig7b()
		case "fig8":
			return h.Fig8()
		case "abl-eta":
			return h.AblationEta(nil)
		case "abl-budget":
			return h.AblationBudget(nil)
		case "abl-signature":
			return h.AblationSignature()
		case "abl-input":
			return h.AblationInputShift(7)
		case "abl-detector":
			return h.AblationDetector(100)
		case "engines":
			return h.Engines("")
		case "served":
			return h.Served("")
		case "sharded":
			return h.Sharded("")
		}
		return nil, fmt.Errorf("unknown experiment %q", name)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig1", "table1", "fig5", "fig6", "fig7a", "fig7b", "fig8",
			"abl-eta", "abl-budget", "abl-signature", "abl-detector", "abl-input",
			"engines", "served", "sharded"}
	}
	reg := obs.Default()
	if *chrome != "" {
		reg.CaptureSpans(true)
	}
	rep := report{Quick: *quick, Apps: h.Apps}
	total := time.Now()
	for _, n := range names {
		sp := reg.Span("bench/" + n)
		start := time.Now()
		r, err := run(n)
		wall := time.Since(start)
		sp.End()
		if err != nil {
			return err
		}
		r.Render(stdout)
		fmt.Fprintf(stdout, "[%s: %.0f ms]\n\n", n, float64(wall.Microseconds())/1000)
		rep.Experiments = append(rep.Experiments, expReport{
			Name: n, WallMS: float64(wall.Microseconds()) / 1000, Result: r,
		})
	}
	rep.TotalWallMS = float64(time.Since(total).Microseconds()) / 1000
	rep.Metrics = reg.Snapshot()
	for _, sp := range rep.Metrics.Spans {
		ns := int64(sp.TotalMS * 1e6)
		switch sp.Name {
		case "compile":
			rep.CompileNS = ns
		case "compile/analyze":
			rep.AnalyzeNS = ns
		case "compile/finalize":
			rep.FinalizeNS = ns
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if err := obs.WriteMetricsTo(*metrics, reg, stdout); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := obs.WritePrometheusFileTo(*prom, reg, stdout); err != nil {
		return fmt.Errorf("prom: %w", err)
	}
	if err := obs.WriteChromeTraceFileTo(*chrome, reg, stdout); err != nil {
		return fmt.Errorf("chrometrace: %w", err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
