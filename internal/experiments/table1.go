package experiments

import (
	"errors"
	"fmt"
	"io"

	"encore/internal/baseline"
	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/sfi"
	"encore/internal/trace"
	"encore/internal/workload"
)

// traceTarget compiles sp with the default configuration (via the
// harness's compile cache) and measures Figure 1's "Idempotence Target"
// curve on the instrumented run.
func (h *Harness) traceTarget(sp workload.Spec, cap int, lengths []int) (map[int]float64, error) {
	res, _, err := h.compile(sp, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	selected := map[*ir.Block]bool{}
	for _, r := range res.Regions {
		if !r.Selected {
			continue
		}
		for b := range r.Blocks {
			selected[b] = true
		}
	}
	rec := trace.NewTargetRecorder(cap, selected)
	// Bound the run to the recorder's cap: once it is full, the rest of
	// the workload cannot change the measured curve.
	m := interp.New(res.Mod, interp.Config{Hook: rec, MaxInstrs: int64(cap)})
	defer m.Release()
	m.SetRuntime(res.Metas)
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrBudget) {
		return nil, err
	}
	return rec.TargetFractions(lengths, 200), nil
}

// measureMasking adapts internal/sfi's masking Monte Carlo, returning only
// the combined masked rate.
func measureMasking(build func() (*ir.Module, []*ir.Global), trials int, seed uint64, engine interp.Engine) (float64, error) {
	res, err := sfi.MeasureMasking(build, sfi.MaskingConfig{Trials: trials, Seed: seed, Engine: engine})
	if err != nil {
		return 0, err
	}
	return res.MaskedRate, nil
}

// Table1Row is one measured row of the Table 1 comparison.
type Table1Row struct {
	Scheme         string
	IntervalInstrs int64
	StorageBytes   int64
	CkptTimeInstrs int64
	Scope          string
	Guaranteed     bool
	ExtraHardware  string
}

// Table1Result is the measured Table 1.
type Table1Result struct {
	App  string
	Rows []Table1Row
}

// Table1 measures the three recovery schemes on one representative
// workload (175.vpr by default — the paper's own running example). The
// enterprise scheme checkpoints twice over the run (its hours-scale
// interval, rescaled to our run length); the architectural scheme commits
// every 100K instructions (the paper's 100–500K); Encore's numbers come
// from the instrumented run itself.
func (h *Harness) Table1(app string) (*Table1Result, error) {
	if app == "" {
		app = "175.vpr"
	}
	sp, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{App: app}

	// Enterprise: interval = half the run.
	base := sp.Build()
	m := freshLen(base.Mod, h.Engine)
	ent, err := baseline.MeasureEnterprise(sp.Build().Mod, max(m/2, 1))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Scheme: ent.Name, IntervalInstrs: ent.IntervalInstrs, StorageBytes: ent.StorageBytes,
		CkptTimeInstrs: ent.CkptTimeInstrs, Scope: ent.Scope, Guaranteed: ent.GuaranteedRecovery,
		ExtraHardware: ent.ExtraHardware,
	})

	// Architectural: 100K-instruction commit interval.
	arch, err := baseline.MeasureArchitectural(sp.Build().Mod, 100000)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Scheme: arch.Name, IntervalInstrs: arch.IntervalInstrs, StorageBytes: arch.StorageBytes,
		CkptTimeInstrs: arch.CkptTimeInstrs, Scope: arch.Scope, Guaranteed: arch.GuaranteedRecovery,
		ExtraHardware: arch.ExtraHardware,
	})

	// Encore: measured from the instrumented run.
	r, _, err := h.compile(sp, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var interval, storage int64
	if r.RegionEntries > 0 {
		interval = r.BaselineInstrs / r.RegionEntries
		storage = (r.CkptMemBytes + r.CkptRegBytes) / r.RegionEntries
	}
	var ckptTime int64
	if r.RegionEntries > 0 {
		ckptTime = (r.TotalInstrs - r.BaselineInstrs) / r.RegionEntries
	}
	res.Rows = append(res.Rows, Table1Row{
		Scheme: "Encore", IntervalInstrs: interval, StorageBytes: storage,
		CkptTimeInstrs: ckptTime, Scope: "Processor", Guaranteed: false, ExtraHardware: "No",
	})
	return res, nil
}

// Render writes the Table 1 comparison.
func (r *Table1Result) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Table 1: recovery scheme comparison (measured on %s)\n", r.App)
	fmt.Fprintln(tw, "scheme\tinterval(instrs)\tstorage(B)\tckpt time(instrs)\tscope\tguaranteed\textra hw")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%v\t%s\n",
			row.Scheme, row.IntervalInstrs, row.StorageBytes, row.CkptTimeInstrs,
			row.Scope, row.Guaranteed, row.ExtraHardware)
	}
	tw.Flush()
}

// freshLen returns the baseline dynamic length of a module.
func freshLen(mod *ir.Module, engine interp.Engine) int64 {
	m := interp.New(mod, interp.Config{Engine: engine})
	defer m.Release()
	if _, err := m.Run(); err != nil {
		return 1
	}
	return m.BaseCount
}
