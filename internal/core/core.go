// Package core assembles the full Encore pipeline (paper Figure 3): it
// profiles a program, partitions every function's CFG into SEME regions,
// runs the idempotence analysis under the configured alias mode and Pmin,
// applies the γ/η selection heuristics within a performance budget,
// instruments the module for rollback recovery, and measures the real
// dynamic-instruction overhead by re-running the instrumented program.
//
// The pipeline is staged: Analyze covers everything up to and including
// region formation (it depends only on the module, AliasMode, Pmin and
// Eta) and fans the per-function idempotence analysis out over a bounded
// worker pool; Finalize applies the γ/budget selection, instruments, and
// measures. Compile is their composition. Parameter sweeps that vary only
// γ or the budget can run Analyze once and Finalize per config point —
// see Analysis.Snapshot/Replay.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"encore/internal/alias"
	"encore/internal/idem"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/model"
	"encore/internal/obs"
	"encore/internal/opt"
	"encore/internal/profile"
	"encore/internal/region"
	"encore/internal/workpool"
	"encore/internal/xform"
)

// Config parametrizes one Encore compilation.
type Config struct {
	// Pmin prunes blocks with execution probability below it from the
	// idempotence analysis (§3.4.1). Valid only when UsePmin is set;
	// UsePmin=false reproduces the paper's Pmin = ∅ column.
	Pmin    float64
	UsePmin bool

	// Gamma is the Coverage/Cost instrumentation floor (γ, §3.4.2);
	// zero disables the floor and selection is budget-driven, mirroring
	// the paper's per-application empirical derivation.
	Gamma float64
	// Eta is the region-merge threshold (η, Equation 5); zero accepts
	// every interval merge.
	Eta float64
	// Budget caps the estimated fractional runtime overhead; the paper
	// targets 0.20.
	Budget float64

	// AliasMode selects the Static, Profiled, or Optimistic analysis of
	// Figure 7a.
	AliasMode alias.Mode

	// Optimize runs the scalar optimization passes (constant folding,
	// copy propagation, DCE) before analysis, matching the paper's -O3
	// compilation baseline. The benchmark kernels are already written in
	// optimized form, so this mainly matters for external IR.
	Optimize bool

	// Interp configures the profiling and measurement runs.
	Interp interp.Config

	// Profile supplies a pre-collected baseline execution profile for the
	// module, skipping Compile's own profiling run. The caller must
	// guarantee it was collected on an identical build (same structure
	// after the Optimize passes). Ignored in Profiled alias mode, which
	// needs its own address-observation run regardless.
	Profile *profile.Data

	// Obs selects the metrics registry the compile reports into: stage
	// spans under "compile/...", heuristic counters under "compile.*",
	// and the interpreter counters of the profiling and measurement runs.
	// Nil selects obs.Default(), so command-level -metrics dumps see
	// every compile without explicit plumbing.
	Obs *obs.Registry

	// Workers bounds the per-function analysis fan-out of the regions
	// stage. Zero (the default) consults the ENCORE_WORKERS environment
	// override and falls back to GOMAXPROCS; the value is normalized via
	// workpool.Clamp, as every worker count in the tree is. Results are
	// bit-identical for every worker count
	// (per-function outputs are collected positionally), so Workers is a
	// pure throughput knob and is excluded from result cache keys.
	Workers int
}

// DefaultConfig returns the paper's headline configuration: Pmin = 0.0,
// budget-driven selection targeting 20% overhead, static alias analysis.
func DefaultConfig() Config {
	return Config{Pmin: 0, UsePmin: true, Eta: 0.5, Budget: 0.20, AliasMode: alias.Static}
}

// Result is a compiled, instrumented program plus everything measured
// along the way.
type Result struct {
	Mod     *ir.Module
	Cfg     Config
	Prof    *profile.Data
	Regions []*region.Region
	// Candidates are the pre-merge level-0 interval regions; Figure 5's
	// idempotence breakdown is reported over these.
	Candidates []*region.Region
	Metas      []interp.RegionMeta
	Stats      *xform.Stats

	// EstOverhead is the selector's estimate of fractional overhead.
	EstOverhead float64

	// Measured by re-running the instrumented module:
	BaselineInstrs   int64   // baseline dynamic instructions
	TotalInstrs      int64   // instrumented dynamic instructions
	MeasuredOverhead float64 // (Total-Baseline)/Baseline
	CkptRegBytes     int64
	CkptMemBytes     int64
	RegionEntries    int64
}

// Analysis is the output of the γ/budget-independent front half of the
// pipeline: the profiled module with its formed (but not yet selected or
// instrumented) recovery regions. One Analysis supports one Finalize —
// selection and instrumentation mutate the regions and the module — so
// parameter sweeps snapshot it once and replay onto fresh builds
// (Snapshot/Replay in snapshot.go).
type Analysis struct {
	Mod *ir.Module
	// Cfg is the configuration Analyze ran under; Finalize reuses its
	// analysis-stage fields and takes only γ/budget (and the measurement
	// knobs) from its own argument.
	Cfg        Config
	Prof       *profile.Data
	Regions    []*region.Region
	Candidates []*region.Region
}

// Analyze runs the analysis half of the pipeline: verify → optimize →
// profile → alias analysis → region formation + idempotence dataflow →
// (Profiled mode only) conflict observation. It depends on the module and
// on the AliasMode/Pmin/Eta/Optimize fields of cfg, but not on γ or the
// budget. The module is mutated only by the Optimize passes.
//
// The per-function regions stage runs on a bounded worker pool (see
// Config.Workers). This is safe because everything the workers share is
// read-only by construction: the alias.ModuleInfo is fully built (and,
// in Profiled mode, has its observations attached) before fan-out and is
// never written afterwards; profile.Data is only read; cfg/ir structures
// are only read. Each worker builds its own idem.Env (the only mutable
// analysis state), and per-function outputs are collected positionally,
// so region order, module-unique region IDs, and the obs class counters
// are identical for every worker count.
func Analyze(mod *ir.Module, cfg Config) (*Analysis, error) {
	reg := obs.Or(cfg.Obs)
	reg.Counter("compile.analyze.runs").Inc()
	root := reg.Span("compile/analyze")
	defer root.End()

	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("core: input module: %w", err)
	}
	if cfg.Optimize {
		sp := root.Child("optimize")
		opt.Optimize(mod)
		sp.End()
	}
	ic := cfg.Interp
	ic.Obs = reg
	var prof *profile.Data
	var addrs profile.AddrProfile
	var err error
	spProf := root.Child("profile")
	switch {
	case cfg.AliasMode == alias.Profiled:
		prof, addrs, err = profile.CollectWithAddresses(mod, ic)
	case cfg.Profile != nil:
		prof = cfg.Profile
	default:
		prof, err = profile.Collect(mod, ic)
	}
	spProf.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	spAlias := root.Child("alias")
	mi := alias.AnalyzeModule(mod)
	if addrs != nil {
		mi.AttachObservations(addrs)
	}
	spAlias.End()

	spRegions := root.Child("regions")
	work := make([]*ir.Func, 0, len(mod.Funcs))
	for _, f := range mod.Funcs {
		if len(f.Blocks) == 0 || f.Opaque {
			continue
		}
		work = append(work, f)
	}
	type funcOut struct {
		final, cand []*region.Region
	}
	outs := make([]funcOut, len(work))
	analyzeFunc := func(i int) {
		f := work[i]
		env := idem.NewEnv(f, mi, cfg.AliasMode)
		if cfg.UsePmin {
			env.WithProfile(prof.Freq, cfg.Pmin)
		}
		fin, cand := region.Form(f, env, prof, region.FormConfig{Eta: cfg.Eta, Obs: reg})
		outs[i] = funcOut{fin, cand}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = workpool.FromEnv()
	}
	workpool.Dispatch(len(work), 1, workers, nil, func(_ int, pull func() (workpool.Shard, bool)) {
		for sh, ok := pull(); ok; sh, ok = pull() {
			for i := sh.Lo; i < sh.Hi; i++ {
				analyzeFunc(i)
			}
		}
	})
	var regions, candidates []*region.Region
	for _, o := range outs {
		regions = append(regions, o.final...)
		candidates = append(candidates, o.cand...)
	}
	// Region IDs must be module-unique for the runtime metadata.
	for i, r := range regions {
		r.ID = i
	}
	spRegions.End()
	recordClassCounts(reg, candidates, regions)

	// Profiled mode: one conflict-observation run prunes checkpoint sets
	// to the stores that dynamically violate idempotence.
	if cfg.AliasMode == alias.Profiled {
		spConf := root.Child("conflicts")
		err := observeConflicts(mod, regions, ic)
		spConf.End()
		if err != nil {
			return nil, fmt.Errorf("core: conflict profiling: %w", err)
		}
	}
	return &Analysis{Mod: mod, Cfg: cfg, Prof: prof, Regions: regions, Candidates: candidates}, nil
}

// Finalize runs the decision half of the pipeline on an Analysis: γ/budget
// selection, instrumentation, and the measurement run. Only the Gamma,
// Budget, Interp, and Obs fields of cfg are consulted — the analysis-stage
// knobs are fixed by the Analysis itself. Finalize mutates the analysis
// (Selected bits, instrumented module), so it must be called at most once
// per Analysis; sweeps replay a Snapshot instead.
func (a *Analysis) Finalize(cfg Config) (*Result, error) {
	return a.finalize(cfg, true)
}

// Instrument is Finalize without the measurement run: selection and
// instrumentation only, under the same "compile/finalize" span but with
// no "measure" child. The Result's measured fields (BaselineInstrs,
// TotalInstrs, MeasuredOverhead and the checkpoint counters) stay zero.
// Fault-injection campaigns use it: their golden run executes the
// instrumented module anyway and reads nothing the measurement yields.
func (a *Analysis) Instrument(cfg Config) (*Result, error) {
	return a.finalize(cfg, false)
}

// finalize is Finalize, with the measurement run only when measure is
// set.
func (a *Analysis) finalize(cfg Config, measure bool) (*Result, error) {
	eff := a.Cfg
	eff.Gamma, eff.Budget = cfg.Gamma, cfg.Budget
	eff.Interp = cfg.Interp
	eff.Obs = cfg.Obs
	reg := obs.Or(eff.Obs)
	reg.Counter("compile.finalize.runs").Inc()
	root := reg.Span("compile/finalize")
	defer root.End()

	spSel := root.Child("select")
	est := region.Select(a.Regions, a.Prof, region.SelectConfig{Gamma: eff.Gamma, Budget: eff.Budget, Obs: reg})
	spSel.End()

	spInstr := root.Child("instrument")
	metas, stats, err := xform.Instrument(a.Mod, a.Regions)
	spInstr.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	res := &Result{
		Mod: a.Mod, Cfg: eff, Prof: a.Prof, Regions: a.Regions, Candidates: a.Candidates,
		Metas: metas, Stats: stats, EstOverhead: est,
	}
	if !measure {
		return res, nil
	}
	spMeas := root.Child("measure")
	defer spMeas.End()
	if err := res.measure(reg); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs the instrumented module once under r.Cfg.Interp,
// reporting the interpreter counters into reg, and fills r's measured
// fields.
func (r *Result) measure(reg *obs.Registry) error {
	ic := r.Cfg.Interp
	ic.Obs = reg
	m := interp.New(r.Mod, ic)
	defer m.Release()
	m.SetRuntime(r.Metas)
	if _, err := m.Run(); err != nil {
		return fmt.Errorf("core: instrumented run: %w", err)
	}
	r.BaselineInstrs = m.BaseCount
	r.TotalInstrs = m.Count
	if m.BaseCount > 0 {
		r.MeasuredOverhead = float64(m.Count-m.BaseCount) / float64(m.BaseCount)
	}
	r.CkptRegBytes = m.CkptRegBytes
	r.CkptMemBytes = m.CkptMemBytes
	r.RegionEntries = m.RegionEntries
	return nil
}

// Compile runs the full pipeline on mod, instrumenting it in place. It is
// exactly Analyze followed by Finalize under one "compile" span.
func Compile(mod *ir.Module, cfg Config) (*Result, error) {
	reg := obs.Or(cfg.Obs)
	reg.Counter("compile.runs").Inc()
	root := reg.Span("compile")
	defer root.End()

	a, err := Analyze(mod, cfg)
	if err != nil {
		return nil, err
	}
	return a.Finalize(cfg)
}

// recordClassCounts folds the idempotence breakdown of the candidate
// regions and the Pmin pruning totals into the metrics registry.
func recordClassCounts(reg *obs.Registry, candidates, regions []*region.Region) {
	var idemN, nonIdem, unknown, pruned int64
	for _, rg := range candidates {
		switch rg.Analysis.Class {
		case idem.Idempotent:
			idemN++
		case idem.NonIdempotent:
			nonIdem++
		default:
			unknown++
		}
	}
	for _, rg := range regions {
		pruned += int64(rg.Analysis.PrunedBlocks)
	}
	reg.Add("compile.class.idempotent", idemN)
	reg.Add("compile.class.nonidempotent", nonIdem)
	reg.Add("compile.class.unknown", unknown)
	reg.Add("compile.pmin.pruned_blocks", pruned)
}

// ClassCounts tallies regions by idempotence class (Figure 5's segments).
type ClassCounts struct {
	Idempotent, NonIdempotent, Unknown int
}

// Total returns the region count.
func (c ClassCounts) Total() int { return c.Idempotent + c.NonIdempotent + c.Unknown }

// FracIdempotent returns the idempotent fraction (0 when empty).
func (c ClassCounts) FracIdempotent() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Idempotent) / float64(c.Total())
}

// ClassCounts computes the Figure-5 static breakdown over the candidate
// (pre-merge) recovery regions.
func (r *Result) ClassCounts() ClassCounts {
	var c ClassCounts
	for _, rg := range r.Candidates {
		switch rg.Analysis.Class {
		case idem.Idempotent:
			c.Idempotent++
		case idem.NonIdempotent:
			c.NonIdempotent++
		default:
			c.Unknown++
		}
	}
	return c
}

// DynBreakdown is Figure 6: fractions of baseline execution time spent in
// inherently idempotent recoverable regions, in instrumented (checkpointed)
// regions, and in unprotected code.
type DynBreakdown struct {
	Idempotent float64 // recoverable for free
	Ckpt       float64 // recoverable via Encore checkpointing
	NoCkpt     float64 // non-idempotent, too costly / impossible to protect
}

// Recoverable returns the covered fraction.
func (d DynBreakdown) Recoverable() float64 { return d.Idempotent + d.Ckpt }

// DynBreakdown computes the Figure-6 execution-time split from the
// baseline profile.
func (r *Result) DynBreakdown() DynBreakdown {
	var d DynBreakdown
	total := float64(r.Prof.Total)
	if total == 0 {
		return d
	}
	for _, rg := range r.Regions {
		frac := float64(rg.DynInstrs) / total
		switch {
		case rg.Selected && rg.Analysis.Class == idem.Idempotent:
			d.Idempotent += frac
		case rg.Selected:
			d.Ckpt += frac
		default:
			d.NoCkpt += frac
		}
	}
	return d
}

// Coverage is Figure 8's per-application recoverability split for one
// detection latency, before hardware masking is applied.
type Coverage struct {
	Dmax      float64
	RecovIdem float64 // fraction of unmasked faults recovered in idempotent regions
	RecovCkpt float64 // fraction recovered in checkpointed regions
	NotRecov  float64
}

// RegionCoverage is one formed region's row in the Equation-7 coverage
// model at a fixed detection-latency bound: its identity, idempotence
// class, share of baseline execution time, mean instance length, and the
// analytical per-region recovery probability α. This is the prediction
// side of the SFI attribution join (encore-sfi -report): a campaign's
// measured per-region recovery rates are compared against these rows.
type RegionCoverage struct {
	ID       int
	Fn       string
	Header   string
	Class    idem.Class
	Selected bool
	// DynFrac is the region's share of baseline dynamic instructions —
	// under the uniform fault-site model, the probability a fault lands
	// in it.
	DynFrac float64
	// InstanceLen is the mean dynamic length of one region instance (the
	// n Equation 7's α scales by).
	InstanceLen float64
	// Alpha is model.Alpha(InstanceLen, dmax): the probability a fault
	// striking inside the region is detected before control leaves it.
	Alpha float64
	// Hash digests the region's post-instrumentation code — function
	// name, member block names, every instruction and terminator in
	// block order. It identifies "the same region code" across compiles
	// of edited modules: unchanged functions keep their region hashes
	// while any code or instrumentation change produces a new one, which
	// is the join key for composing prior campaign results
	// (sfi.PriorRegion) instead of re-injecting unchanged regions.
	Hash string
}

// RegionCoverages evaluates the α model for every formed region
// (selected or not) at the given detection-latency bound, in region-ID
// order.
func (r *Result) RegionCoverages(dmax float64) []RegionCoverage {
	total := float64(r.Prof.Total)
	out := make([]RegionCoverage, 0, len(r.Regions))
	for _, rg := range r.Regions {
		rc := RegionCoverage{
			ID: rg.ID, Fn: rg.Fn.Name, Header: rg.Header.Name,
			Class: rg.Analysis.Class, Selected: rg.Selected,
			InstanceLen: rg.InstanceLen(),
			Alpha:       model.Alpha(rg.InstanceLen(), dmax),
			Hash:        regionHash(rg),
		}
		if total > 0 {
			rc.DynFrac = float64(rg.DynInstrs) / total
		}
		out = append(out, rc)
	}
	return out
}

// regionHash computes RegionCoverage.Hash: a SHA-256 digest (truncated
// to 128 bits, hex) over the region's member blocks in function block
// order — names, instructions, and terminators as printed by the ir
// package. Hashing the instrumented form is deliberate: a change to
// checkpoint placement invalidates prior trial results just as surely
// as a source edit does.
func regionHash(rg *region.Region) string {
	h := sha256.New()
	io.WriteString(h, rg.Fn.Name)
	io.WriteString(h, "\x00")
	for _, b := range rg.Fn.Blocks {
		if !rg.Blocks[b] {
			continue
		}
		io.WriteString(h, b.Name)
		io.WriteString(h, "\x01")
		for i := range b.Instrs {
			io.WriteString(h, b.Instrs[i].String())
			io.WriteString(h, "\n")
		}
		io.WriteString(h, b.Term.String())
		io.WriteString(h, "\x02")
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RecoverableCoverage applies the Equation-7 α model to the selected
// regions: a fault is recoverable when it strikes inside a protected
// region and is detected before control leaves it. Fault sites are
// uniform over dynamic instructions, so each region weighs by its share
// of execution time.
func (r *Result) RecoverableCoverage(dmax float64) Coverage {
	cov := Coverage{Dmax: dmax}
	if r.Prof.Total == 0 {
		cov.NotRecov = 1
		return cov
	}
	for _, rc := range r.RegionCoverages(dmax) {
		if !rc.Selected || rc.DynFrac == 0 {
			continue
		}
		if rc.Class == idem.Idempotent {
			cov.RecovIdem += rc.DynFrac * rc.Alpha
		} else {
			cov.RecovCkpt += rc.DynFrac * rc.Alpha
		}
	}
	cov.NotRecov = 1 - cov.RecovIdem - cov.RecovCkpt
	if cov.NotRecov < 0 {
		cov.NotRecov = 0
	}
	return cov
}
