// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the reproduction's own pipeline: one function per
// experiment, each returning structured rows plus a formatted text
// rendering. cmd/encore-bench and the repository's benchmarks are thin
// wrappers around this package. See EXPERIMENTS.md for paper-vs-measured
// discussion.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"encore/internal/alias"
	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/profile"
	"encore/internal/workload"
	"encore/internal/workpool"
)

// Harness carries the experiment-wide knobs.
type Harness struct {
	// Quick reduces Monte-Carlo trial counts for use in unit tests.
	Quick bool
	// Apps restricts the benchmark set (nil = all 23).
	Apps []string
	// Engine selects the interpreter engine for every measurement run the
	// harness drives — compile-time overhead measurement, profiling, SFI
	// campaigns. All engines are observationally equivalent, so every
	// reported number is engine-invariant; the choice only moves
	// wall-clock. Hook-based measurements (Fig. 1's trace target, address
	// profiling) always run on the reference loop regardless.
	Engine interp.Engine
}

// Compile memoization: Fig. 5/6/7a/7b/8 and Table 1 all need the
// default-config compile of every workload (and Fig. 5/7a sweep a few
// configs more). Workload builds are deterministic, so (app, config)
// fully determines the result and the cache is process-wide — every
// Harness shares one compile per key. Guarded by compileMu; each entry
// compiles exactly once even under the forEachSpec worker pool.
var (
	compileMu    sync.Mutex
	compileCache = map[compileKey]*compileEntry{}
)

// compileKey identifies one memoizable (workload, config) compile. It
// mirrors core.Config's scalar knobs; configs with a non-zero Interp
// sub-config are not cached (interp.Config holds a Hook interface, and a
// custom interpreter setup usually means the caller wants a private
// result anyway) — except for Interp.Engine, which the harness itself
// sets on every compile and which therefore joins the key.
type compileKey struct {
	app       string
	pmin      float64
	usePmin   bool
	gamma     float64
	eta       float64
	budget    float64
	aliasMode alias.Mode
	optimize  bool
	engine    interp.Engine
}

type compileEntry struct {
	once sync.Once
	res  *core.Result
	art  *workload.Artifact
	err  error
}

func cacheKey(sp workload.Spec, cfg core.Config) (compileKey, bool) {
	ic := cfg.Interp
	if ic.MemWords != 0 || ic.StackWords != 0 || ic.MaxInstrs != 0 || ic.MaxDepth != 0 ||
		ic.Profile || ic.Hook != nil {
		return compileKey{}, false
	}
	return compileKey{
		app:       sp.Name,
		pmin:      cfg.Pmin,
		usePmin:   cfg.UsePmin,
		gamma:     cfg.Gamma,
		eta:       cfg.Eta,
		budget:    cfg.Budget,
		aliasMode: cfg.AliasMode,
		optimize:  cfg.Optimize,
		engine:    ic.Engine,
	}, true
}

func (h *Harness) specs() []workload.Spec {
	all := workload.All()
	if len(h.Apps) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, a := range h.Apps {
		want[a] = true
	}
	var out []workload.Spec
	for _, sp := range all {
		if want[sp.Name] {
			out = append(out, sp)
		}
	}
	return out
}

func (h *Harness) trials(full int) int {
	if h.Quick {
		q := full / 5
		if q < 20 {
			q = 20
		}
		return q
	}
	return full
}

// compileFresh runs the Encore pipeline on a fresh build of sp.
func compileFresh(sp workload.Spec, cfg core.Config) (*core.Result, *workload.Artifact, error) {
	art := sp.Build()
	res, err := core.Compile(art.Mod, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sp.Name, err)
	}
	return res, art, nil
}

// compile returns the memoized Encore pipeline result for (sp, cfg),
// compiling on first use. The returned result and artifact are shared:
// callers must treat the module as immutable (running machines on it is
// fine; re-instrumenting or re-randomizing it is not — use compileFresh
// or core.Compile directly for that, as the input-shift ablation does).
func (h *Harness) compile(sp workload.Spec, cfg core.Config) (*core.Result, *workload.Artifact, error) {
	cfg.Interp.Engine = h.Engine
	key, ok := cacheKey(sp, cfg)
	if !ok {
		return compileFresh(sp, cfg)
	}
	compileMu.Lock()
	e := compileCache[key]
	if e == nil {
		e = &compileEntry{}
		compileCache[key] = e
	}
	compileMu.Unlock()
	e.once.Do(func() {
		e.res, e.art, e.err = compileStaged(sp, cfg)
	})
	return e.res, e.art, e.err
}

// compileStaged is the staged-pipeline twin of compileFresh: it fetches
// the memoized analysis snapshot for cfg's analysis-stage knobs and
// replays it onto a fresh build for this γ/budget point, so config sweeps
// that only vary post-analysis decisions never re-run the dataflow.
// Replay hands each config point its own region copies — Finalize mutates
// them (Selected bits, instrumentation) — while the snapshot stays
// immutable and shared.
func compileStaged(sp workload.Spec, cfg core.Config) (*core.Result, *workload.Artifact, error) {
	snap, err := analysisSnapshot(sp, cfg)
	if err != nil {
		return nil, nil, err
	}
	art := sp.Build()
	a, err := snap.Replay(art.Mod)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sp.Name, err)
	}
	res, err := a.Finalize(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sp.Name, err)
	}
	return res, art, nil
}

// Analysis memoization, the second cache level: γ/budget only matter to
// Finalize, so every compileCache entry that shares (app, Pmin, η, alias
// mode, optimize) shares one core.Analyze — asserted by the
// "compile.analyze.runs" counter. The cache itself is the shared
// core.SnapshotCache (the same machinery internal/serve keys campaigns
// on); this process-wide instance memoizes the benchmark suite.
var analysisCache = core.NewSnapshotCache()

func analysisSnapshot(sp workload.Spec, cfg core.Config) (*core.AnalysisSnapshot, error) {
	return analysisCache.Get("workload:"+sp.Name, cfg, func() (*core.Analysis, error) {
		// All cached analyses of one app share a single baseline
		// profiling run, replayed onto this build. Profiled alias mode
		// collects its own run regardless, and Optimize would change the
		// structure the profile is keyed on.
		c := cfg
		c.Obs = nil // shared work reports into the default registry
		art := sp.Build()
		if c.AliasMode != alias.Profiled && !c.Optimize {
			pos, err := baselineProfile(sp, c.Interp.Engine)
			if err != nil {
				return nil, err
			}
			c.Profile = pos.Materialize(art.Mod)
		}
		a, err := core.Analyze(art.Mod, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		return a, nil
	})
}

// Baseline-profile memoization: one profiling run per app, shared by
// every cached config sweep. Stored positionally so it can be replayed
// onto each compile's fresh build.
var (
	profMu    sync.Mutex
	profCache = map[profKey]*profEntry{}
)

// profKey: the profile's contents are engine-invariant, but keying by
// engine keeps each engine's measurement path self-contained (and the
// cost is one extra profiling run per engine actually used).
type profKey struct {
	app    string
	engine interp.Engine
}

type profEntry struct {
	once sync.Once
	pos  *profile.Positional
	err  error
}

func baselineProfile(sp workload.Spec, engine interp.Engine) (*profile.Positional, error) {
	key := profKey{app: sp.Name, engine: engine}
	profMu.Lock()
	e := profCache[key]
	if e == nil {
		e = &profEntry{}
		profCache[key] = e
	}
	profMu.Unlock()
	e.once.Do(func() {
		art := sp.Build()
		// The shared run reports into the default registry so -metrics
		// sees the suite's baseline profiling work exactly once per app.
		d, err := profile.Collect(art.Mod, interp.Config{Obs: obs.Default(), Engine: engine})
		if err != nil {
			e.err = err
			return
		}
		e.pos = d.Positional(art.Mod)
	})
	return e.pos, e.err
}

// forEachSpec runs fn over the benchmark set with a bounded worker pool
// (each benchmark compiles and simulates independently), preserving the
// suite order of results. The pool size follows the sfi convention:
// ENCORE_WORKERS overrides, otherwise GOMAXPROCS, clamped to the spec
// count. The first error wins.
func (h *Harness) forEachSpec(fn func(i int, sp workload.Spec) error) error {
	specs := h.specs()
	errs := make([]error, len(specs))
	workpool.Dispatch(len(specs), 1, workpool.FromEnv(), nil, func(_ int, pull func() (workpool.Shard, bool)) {
		for sh, ok := pull(); ok; sh, ok = pull() {
			for i := sh.Lo; i < sh.Hi; i++ {
				errs[i] = fn(i, specs[i])
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// suiteMeans appends per-suite "Mean" rows to tabular output, mirroring
// the figures' Mean columns.
type meanAcc struct {
	n    int
	vals []float64
}

func (a *meanAcc) add(vals ...float64) {
	if a.vals == nil {
		a.vals = make([]float64, len(vals))
	}
	for i, v := range vals {
		a.vals[i] += v
	}
	a.n++
}

func (a *meanAcc) means() []float64 {
	out := make([]float64, len(a.vals))
	for i, v := range a.vals {
		if a.n > 0 {
			out[i] = v / float64(a.n)
		}
	}
	return out
}

func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// suiteOrder mirrors the paper's figure layout.
var suiteOrder = []string{"SPEC2K-INT", "SPEC2K-FP", "MEDIABENCH"}

// suiteAcc accumulates per-suite means alongside the grand mean.
type suiteAcc struct {
	bySuite map[string]*meanAcc
	all     meanAcc
}

func newSuiteAcc() *suiteAcc {
	return &suiteAcc{bySuite: map[string]*meanAcc{}}
}

func (a *suiteAcc) add(suite string, vals ...float64) {
	m := a.bySuite[suite]
	if m == nil {
		m = &meanAcc{}
		a.bySuite[suite] = m
	}
	m.add(vals...)
	a.all.add(vals...)
}

// emit writes "<Suite> Mean" rows (in paper order) and a grand Mean row,
// formatting each value with fmtVal.
func (a *suiteAcc) emit(tw *tabwriter.Writer, fmtVal func(float64) string) {
	for _, suite := range suiteOrder {
		m := a.bySuite[suite]
		if m == nil {
			continue
		}
		fmt.Fprintf(tw, "%s Mean", suite)
		for _, v := range m.means() {
			fmt.Fprintf(tw, "	%s", fmtVal(v))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "Mean")
	for _, v := range a.all.means() {
		fmt.Fprintf(tw, "	%s", fmtVal(v))
	}
	fmt.Fprintln(tw)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// ---- Figure 1 --------------------------------------------------------

// Fig1Row is one benchmark's trace-idempotence curve plus the achieved
// "Idempotence Target" curve of the compiled binary.
type Fig1Row struct {
	App       string
	Suite     string
	Fractions map[int]float64 // window length -> fraction inherently idempotent
	Target    map[int]float64 // window length -> fraction Encore-recoverable
}

// Fig1Result is the Figure 1 dataset.
type Fig1Result struct {
	Lengths []int
	Rows    []Fig1Row
}

// Fig1 measures the fraction of dynamic instruction windows that are
// inherently idempotent, per window length (paper Figure 1).
func (h *Harness) Fig1() (*Fig1Result, error) {
	lengths := []int{10, 25, 50, 100, 250, 500, 1000}
	res := &Fig1Result{Lengths: lengths}
	cap := 200000
	if h.Quick {
		cap = 40000
	}
	rows := make([]Fig1Row, len(h.specs()))
	err := h.forEachSpec(func(i int, sp workload.Spec) error {
		art := sp.Build()
		rec, err := traceRecord(art.Mod, cap)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		target, err := h.traceTarget(sp, cap, lengths)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		rows[i] = Fig1Row{
			App:       sp.Name,
			Suite:     sp.Suite.String(),
			Fractions: rec.Fractions(lengths, 200),
			Target:    target,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render writes the Figure 1 table.
func (r *Fig1Result) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 1: fully idempotent dynamic traces by window length\n")
	fmt.Fprintf(tw, "app")
	for _, L := range r.Lengths {
		fmt.Fprintf(tw, "\t%d", L)
	}
	fmt.Fprintln(tw)
	acc := meanAcc{}
	tacc := meanAcc{}
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s", row.App)
		vals := make([]float64, 0, len(r.Lengths))
		tvals := make([]float64, 0, len(r.Lengths))
		for _, L := range r.Lengths {
			fmt.Fprintf(tw, "\t%s>%s", pct(row.Fractions[L]), pct(row.Target[L]))
			vals = append(vals, row.Fractions[L])
			tvals = append(tvals, row.Target[L])
		}
		acc.add(vals...)
		tacc.add(tvals...)
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "Mean idem")
	for _, m := range acc.means() {
		fmt.Fprintf(tw, "\t%s", pct(m))
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "Mean target")
	for _, m := range tacc.means() {
		fmt.Fprintf(tw, "\t%s", pct(m))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// ---- Figure 5 --------------------------------------------------------

// PminConfig names one Pmin column of Figure 5.
type PminConfig struct {
	Name string
	Use  bool
	P    float64
}

// PminConfigs are the paper's four Figure 5 configurations.
var PminConfigs = []PminConfig{
	{Name: "∅", Use: false},
	{Name: "0.0", Use: true, P: 0.0},
	{Name: "0.1", Use: true, P: 0.1},
	{Name: "0.25", Use: true, P: 0.25},
}

// Fig5Row is one benchmark's region-idempotence breakdown per Pmin.
type Fig5Row struct {
	App    string
	Suite  string
	Counts []core.ClassCounts // parallel to PminConfigs
}

// Fig5Result is the Figure 5 dataset.
type Fig5Result struct{ Rows []Fig5Row }

// Fig5 computes inherent region idempotence as a function of Pmin.
func (h *Harness) Fig5() (*Fig5Result, error) {
	rows := make([]Fig5Row, len(h.specs()))
	err := h.forEachSpec(func(i int, sp workload.Spec) error {
		row := Fig5Row{App: sp.Name, Suite: sp.Suite.String()}
		for _, pc := range PminConfigs {
			cfg := core.DefaultConfig()
			cfg.UsePmin = pc.Use
			cfg.Pmin = pc.P
			r, _, err := h.compile(sp, cfg)
			if err != nil {
				return err
			}
			row.Counts = append(row.Counts, r.ClassCounts())
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: rows}, nil
}

// Render writes the Figure 5 table.
func (r *Fig5Result) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 5: inherent region idempotence vs Pmin (idem/nonidem/unknown %%)\n")
	fmt.Fprintf(tw, "app")
	for _, pc := range PminConfigs {
		fmt.Fprintf(tw, "\tPmin=%s", pc.Name)
	}
	fmt.Fprintln(tw)
	acc := newSuiteAcc()
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s", row.App)
		var vals []float64
		for _, c := range row.Counts {
			t := float64(c.Total())
			if t == 0 {
				t = 1
			}
			fmt.Fprintf(tw, "\t%.0f/%.0f/%.0f",
				100*float64(c.Idempotent)/t, 100*float64(c.NonIdempotent)/t, 100*float64(c.Unknown)/t)
			vals = append(vals, float64(c.Idempotent)/t)
		}
		acc.add(row.Suite, vals...)
		fmt.Fprintln(tw)
	}
	acc.emit(tw, pct)
	tw.Flush()
}

// MeanIdempotent returns the cross-application mean idempotent fraction
// for the i-th Pmin configuration.
func (r *Fig5Result) MeanIdempotent(i int) float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		c := row.Counts[i]
		if c.Total() == 0 {
			continue
		}
		sum += c.FracIdempotent()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---- Figure 6 --------------------------------------------------------

// Fig6Row is one benchmark's dynamic-execution breakdown.
type Fig6Row struct {
	App   string
	Suite string
	B     core.DynBreakdown
}

// Fig6Result is the Figure 6 dataset.
type Fig6Result struct{ Rows []Fig6Row }

// Fig6 computes the breakdown of execution time into inherently
// idempotent, Encore-checkpointed, and unprotected regions (Pmin = 0.0).
func (h *Harness) Fig6() (*Fig6Result, error) {
	res := &Fig6Result{}
	for _, sp := range h.specs() {
		r, _, err := h.compile(sp, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{App: sp.Name, Suite: sp.Suite.String(), B: r.DynBreakdown()})
	}
	return res, nil
}

// Render writes the Figure 6 table.
func (r *Fig6Result) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 6: dynamic execution breakdown (Pmin=0.0)\n")
	fmt.Fprintln(tw, "app\tidempotent\tw/ ckpt\tw/o ckpt\trecoverable")
	acc := newSuiteAcc()
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", row.App,
			pct(row.B.Idempotent), pct(row.B.Ckpt), pct(row.B.NoCkpt), pct(row.B.Recoverable()))
		acc.add(row.Suite, row.B.Idempotent, row.B.Ckpt, row.B.NoCkpt, row.B.Recoverable())
	}
	acc.emit(tw, pct)
	tw.Flush()
}

// ---- Figure 7a -------------------------------------------------------

// Fig7aRow is one benchmark's runtime overhead under the three alias
// modes. Static and Optimistic are the paper's two bars; Profiled is this
// reproduction's implementation of the paper's stated future work
// (dynamic memory profiling).
type Fig7aRow struct {
	App        string
	Suite      string
	Static     float64
	Profiled   float64
	Optimistic float64
}

// Fig7aResult is the Figure 7a dataset.
type Fig7aResult struct{ Rows []Fig7aRow }

// Fig7a measures runtime overhead (dynamic instructions) for the static,
// profiled, and optimistic alias analyses.
func (h *Harness) Fig7a() (*Fig7aResult, error) {
	rows := make([]Fig7aRow, len(h.specs()))
	err := h.forEachSpec(func(i int, sp workload.Spec) error {
		row := Fig7aRow{App: sp.Name, Suite: sp.Suite.String()}
		for _, mode := range []alias.Mode{alias.Static, alias.Profiled, alias.Optimistic} {
			cfg := core.DefaultConfig()
			cfg.AliasMode = mode
			r, _, err := h.compile(sp, cfg)
			if err != nil {
				return err
			}
			switch mode {
			case alias.Static:
				row.Static = r.MeasuredOverhead
			case alias.Profiled:
				row.Profiled = r.MeasuredOverhead
			default:
				row.Optimistic = r.MeasuredOverhead
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig7aResult{Rows: rows}, nil
}

// Render writes the Figure 7a table.
func (r *Fig7aResult) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 7a: runtime overhead by alias analysis\n")
	fmt.Fprintln(tw, "app\tstatic\tprofiled\toptimistic")
	acc := newSuiteAcc()
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", row.App, pct(row.Static), pct(row.Profiled), pct(row.Optimistic))
		acc.add(row.Suite, row.Static, row.Profiled, row.Optimistic)
	}
	acc.emit(tw, pct)
	tw.Flush()
}

// MeanStatic returns the cross-application mean static-alias overhead.
func (r *Fig7aResult) MeanStatic() float64 {
	s := 0.0
	for _, row := range r.Rows {
		s += row.Static
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return s / float64(len(r.Rows))
}

// ---- Figure 7b -------------------------------------------------------

// Fig7bRow is one benchmark's checkpoint storage per region instance.
type Fig7bRow struct {
	App      string
	Suite    string
	MemBytes float64
	RegBytes float64
}

// Fig7bResult is the Figure 7b dataset.
type Fig7bResult struct{ Rows []Fig7bRow }

// Fig7b measures average checkpoint storage per region instance, split
// into memory and register contributions.
func (h *Harness) Fig7b() (*Fig7bResult, error) {
	res := &Fig7bResult{}
	for _, sp := range h.specs() {
		r, _, err := h.compile(sp, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		row := Fig7bRow{App: sp.Name, Suite: sp.Suite.String()}
		if r.RegionEntries > 0 {
			row.MemBytes = float64(r.CkptMemBytes) / float64(r.RegionEntries)
			row.RegBytes = float64(r.CkptRegBytes) / float64(r.RegionEntries)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the Figure 7b table.
func (r *Fig7bResult) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 7b: checkpoint storage per region (bytes)\n")
	fmt.Fprintln(tw, "app\tmemory\tregister\ttotal")
	acc := newSuiteAcc()
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", row.App, row.MemBytes, row.RegBytes, row.MemBytes+row.RegBytes)
		acc.add(row.Suite, row.MemBytes, row.RegBytes, row.MemBytes+row.RegBytes)
	}
	acc.emit(tw, func(v float64) string { return fmt.Sprintf("%.1f", v) })
	tw.Flush()
}

// ---- Figure 8 --------------------------------------------------------

// Fig8Row is one benchmark's full-system fault coverage per detection
// latency.
type Fig8Row struct {
	App    string
	Suite  string
	Masked float64
	// Per Dmax in Fig8Latencies order:
	RecovIdem []float64
	RecovCkpt []float64
	Total     []float64 // masked + recoverable
}

// Fig8Latencies are the paper's three detection-latency columns.
var Fig8Latencies = []float64{1000, 100, 10}

// Fig8Result is the Figure 8 dataset.
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 combines the Monte-Carlo masking rate with the α-scaled
// recoverability coverage (Equation 7) at the three detection latencies.
func (h *Harness) Fig8() (*Fig8Result, error) {
	trials := h.trials(150)
	rows := make([]Fig8Row, len(h.specs()))
	err := h.forEachSpec(func(i int, sp workload.Spec) error {
		r, _, err := h.compile(sp, core.DefaultConfig())
		if err != nil {
			return err
		}
		mask, err := measureMasking(func() (*ir.Module, []*ir.Global) {
			a := sp.Build()
			return a.Mod, a.Outputs
		}, trials, 1234, h.Engine)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		row := Fig8Row{App: sp.Name, Suite: sp.Suite.String(), Masked: mask}
		for _, dmax := range Fig8Latencies {
			cov := r.RecoverableCoverage(dmax)
			unmasked := 1 - mask
			ri := unmasked * cov.RecovIdem
			rc := unmasked * cov.RecovCkpt
			row.RecovIdem = append(row.RecovIdem, ri)
			row.RecovCkpt = append(row.RecovCkpt, rc)
			row.Total = append(row.Total, mask+ri+rc)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// Render writes the Figure 8 table.
func (r *Fig8Result) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 8: full-system fault coverage (masked + recoverable)\n")
	fmt.Fprintf(tw, "app\tmasked")
	for _, d := range Fig8Latencies {
		fmt.Fprintf(tw, "\tD=%.0f", d)
	}
	fmt.Fprintln(tw)
	acc := newSuiteAcc()
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s", row.App, pct(row.Masked))
		vals := []float64{row.Masked}
		for i := range Fig8Latencies {
			fmt.Fprintf(tw, "\t%s", pct(row.Total[i]))
			vals = append(vals, row.Total[i])
		}
		acc.add(row.Suite, vals...)
		fmt.Fprintln(tw)
	}
	acc.emit(tw, pct)
	tw.Flush()
}

// MeanTotal returns the cross-application mean coverage for the i-th
// latency column.
func (r *Fig8Result) MeanTotal(i int) float64 {
	s := 0.0
	for _, row := range r.Rows {
		s += row.Total[i]
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return s / float64(len(r.Rows))
}
