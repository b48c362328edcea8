// Command encore compiles a benchmark with the Encore pipeline and prints
// the per-region analysis, instrumentation, and overhead report.
//
// Usage:
//
//	encore [-app name] [-pmin p | -nopmin] [-gamma g] [-eta e]
//	       [-budget b] [-alias static|optimistic] [-engine fast|ref]
//	       [-regions] [-hashes] [-ir] [-metrics file|-] [-prom file|-]
//	       [-chrometrace file|-]
//
// With no -app it reports a one-line summary for every benchmark.
// -metrics writes the observability snapshot of the compiles (per-stage
// spans, region-heuristic and interpreter counters; see DESIGN.md §9) as
// JSON to the given file, or to stdout for "-"; -prom writes the same
// snapshot in the Prometheus text exposition format. -chrometrace records
// the compile-stage span timeline and writes a chrome://tracing JSON
// array to the given file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"encore/internal/alias"
	"encore/internal/core"
	"encore/internal/idem"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/workload"
)

func main() {
	var (
		app       = flag.String("app", "", "benchmark name (empty = summary of all)")
		pmin      = flag.Float64("pmin", 0.0, "Pmin pruning threshold")
		noPmin    = flag.Bool("nopmin", false, "disable profile pruning (Pmin = ∅)")
		gamma     = flag.Float64("gamma", 0, "γ Coverage/Cost floor (0 = budget-driven)")
		eta       = flag.Float64("eta", 0.5, "η merge threshold")
		budget    = flag.Float64("budget", 0.20, "overhead budget fraction")
		aliasMode = flag.String("alias", "static", "alias analysis: static, profiled, or optimistic")
		engine    = flag.String("engine", "", "execution engine for measurement runs: fast or ref")
		regions   = flag.Bool("regions", false, "print per-region detail")
		hashes    = flag.Bool("hashes", false, "print the per-region content-hash table (the adaptive-reuse key)")
		dumpIR    = flag.Bool("ir", false, "print the instrumented IR")
		optimize  = flag.Bool("O", false, "run scalar optimizations before analysis")
		file      = flag.String("file", "", "compile a textual IR module from a file instead of a benchmark")
		jsonOut   = flag.Bool("json", false, "emit the per-app report as JSON")
		traceN    = flag.Int64("trace", 0, "print the first N executed instructions of the instrumented binary")
		metrics   = flag.String("metrics", "", "write the observability snapshot as JSON to this file (- = stdout)")
		prom      = flag.String("prom", "", "write the observability snapshot in Prometheus text format to this file (- = stdout)")
		chrome    = flag.String("chrometrace", "", "write a chrome://tracing span timeline to this file (- = stdout)")
	)
	flag.Parse()
	if *chrome != "" {
		obs.Default().CaptureSpans(true)
	}

	cfg := core.Config{
		Pmin: *pmin, UsePmin: !*noPmin,
		Gamma: *gamma, Eta: *eta, Budget: *budget,
		Optimize: *optimize,
		Obs:      obs.Default(),
	}
	switch *aliasMode {
	case "static":
		cfg.AliasMode = alias.Static
	case "profiled":
		cfg.AliasMode = alias.Profiled
	case "optimistic":
		cfg.AliasMode = alias.Optimistic
	default:
		fmt.Fprintf(os.Stderr, "encore: unknown alias mode %q\n", *aliasMode)
		os.Exit(2)
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "encore:", err)
		os.Exit(2)
	}
	cfg.Interp.Engine = eng

	specs := workload.All()
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "encore:", err)
			os.Exit(2)
		}
		name := *file
		specs = []workload.Spec{{Name: name, Build: func() *workload.Artifact {
			mod, err := ir.Parse(string(src))
			if err != nil {
				fmt.Fprintln(os.Stderr, "encore:", err)
				os.Exit(1)
			}
			return &workload.Artifact{Mod: mod, Outputs: mod.Globals}
		}}}
	} else if *app != "" {
		sp, err := workload.ByName(*app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "encore:", err)
			os.Exit(2)
		}
		specs = []workload.Spec{sp}
	}

	var jsonRows []appReport
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if !*jsonOut {
		fmt.Fprintln(tw, "app\tregions\tidem\tnonidem\tunknown\tselected\toverhead\tckpt B/region")
	}
	for _, sp := range specs {
		art := sp.Build()
		res, err := core.Compile(art.Mod, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "encore: %s: %v\n", sp.Name, err)
			os.Exit(1)
		}
		cc := res.ClassCounts()
		selected := 0
		for _, r := range res.Regions {
			if r.Selected {
				selected++
			}
		}
		var bpr float64
		if res.RegionEntries > 0 {
			bpr = float64(res.CkptMemBytes+res.CkptRegBytes) / float64(res.RegionEntries)
		}
		if *jsonOut {
			jsonRows = append(jsonRows, makeAppReport(sp.Name, res))
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d/%d\t%.2f%%\t%.1f\n",
				sp.Name, cc.Total(), cc.Idempotent, cc.NonIdempotent, cc.Unknown,
				selected, len(res.Regions), res.MeasuredOverhead*100, bpr)
			tw.Flush()
		}
		if *traceN > 0 {
			traceRun(res, *traceN)
		}

		if *regions {
			total := float64(res.Prof.Total)
			for _, r := range res.Regions {
				class := r.Analysis.Class.String()
				if r.Analysis.Class == idem.NonIdempotent && r.MultiCkpt {
					class += " (multi-ckpt)"
				}
				fmt.Printf("  region %-3d %-28s %-24s sel=%-5v cp=%-3d regs=%-2d dyn=%5.1f%% instance=%.0f\n",
					r.ID, r.Fn.Name+"/"+r.Header.Name, class, r.Selected,
					len(r.Analysis.CP), len(r.RegCkpts),
					100*float64(r.DynInstrs)/total, r.InstanceLen())
			}
		}
		if *hashes {
			// The same content hash keys ledger headers (sfi.RegionInfo.Hash)
			// and adaptive-reuse priors, so this table lets a user predict
			// which regions a -reuse re-run will re-inject after an edit.
			for _, rc := range res.RegionCoverages(100) {
				fmt.Printf("  region %-3d %-28s %s\n", rc.ID, rc.Fn+"/"+rc.Header, rc.Hash)
			}
		}
		if *dumpIR {
			fmt.Println(res.Mod.String())
		}
	}
	tw.Flush()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRows); err != nil {
			fmt.Fprintln(os.Stderr, "encore:", err)
			os.Exit(1)
		}
	}
	if err := obs.WriteMetricsTo(*metrics, obs.Default(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "encore: metrics:", err)
		os.Exit(1)
	}
	if err := obs.WritePrometheusFileTo(*prom, obs.Default(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "encore: prom:", err)
		os.Exit(1)
	}
	if err := obs.WriteChromeTraceFileTo(*chrome, obs.Default(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "encore: chrometrace:", err)
		os.Exit(1)
	}
}

// appReport is the machine-readable form of one compilation report.
type appReport struct {
	App              string         `json:"app"`
	Regions          int            `json:"regions"`
	Idempotent       int            `json:"idempotent"`
	NonIdempotent    int            `json:"nonIdempotent"`
	Unknown          int            `json:"unknown"`
	Selected         int            `json:"selected"`
	MeasuredOverhead float64        `json:"measuredOverhead"`
	BytesPerRegion   float64        `json:"ckptBytesPerRegion"`
	RecoverableExec  float64        `json:"recoverableExecution"`
	CoverageD100     float64        `json:"alphaCoverageD100"`
	RegionDetail     []regionReport `json:"regionDetail"`
}

type regionReport struct {
	ID          int     `json:"id"`
	Fn          string  `json:"fn"`
	Header      string  `json:"header"`
	Class       string  `json:"class"`
	Selected    bool    `json:"selected"`
	Checkpoints int     `json:"checkpoints"`
	RegCkpts    int     `json:"regCheckpoints"`
	DynFraction float64 `json:"dynFraction"`
	InstanceLen float64 `json:"instanceLen"`
}

func makeAppReport(name string, res *core.Result) appReport {
	cc := res.ClassCounts()
	rep := appReport{
		App: name, Regions: cc.Total(),
		Idempotent: cc.Idempotent, NonIdempotent: cc.NonIdempotent, Unknown: cc.Unknown,
		MeasuredOverhead: res.MeasuredOverhead,
	}
	if res.RegionEntries > 0 {
		rep.BytesPerRegion = float64(res.CkptMemBytes+res.CkptRegBytes) / float64(res.RegionEntries)
	}
	rep.RecoverableExec = res.DynBreakdown().Recoverable()
	cov := res.RecoverableCoverage(100)
	rep.CoverageD100 = cov.RecovIdem + cov.RecovCkpt
	total := float64(res.Prof.Total)
	for _, r := range res.Regions {
		if r.Selected {
			rep.Selected++
		}
		dr := regionReport{
			ID: r.ID, Fn: r.Fn.Name, Header: r.Header.Name,
			Class: r.Analysis.Class.String(), Selected: r.Selected,
			Checkpoints: len(r.Analysis.CP), RegCkpts: len(r.RegCkpts),
			InstanceLen: r.InstanceLen(),
		}
		if total > 0 {
			dr.DynFraction = float64(r.DynInstrs) / total
		}
		rep.RegionDetail = append(rep.RegionDetail, dr)
	}
	return rep
}

// traceHook prints the first N executed instructions as disassembly.
type traceHook struct {
	n int64
}

func (h *traceHook) OnInstr(m *interp.Machine, b *ir.Block, idx int) {
	if m.Count >= h.n {
		return
	}
	if idx < len(b.Instrs) {
		fmt.Printf("%6d  %s/%s  %s\n", m.Count, b.Fn.Name, b.Name, b.Instrs[idx].String())
	} else {
		fmt.Printf("%6d  %s/%s  %s\n", m.Count, b.Fn.Name, b.Name, b.Term.String())
	}
}

func traceRun(res *core.Result, n int64) {
	m := interp.New(res.Mod, interp.Config{Hook: &traceHook{n: n}, MaxInstrs: n + 1})
	m.SetRuntime(res.Metas)
	_, _ = m.Run() // budget exhaustion is the expected stop
}
