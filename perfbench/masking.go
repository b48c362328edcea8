package main

import (
	"fmt"
	"time"

	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// maskingBench runs Figure 8's raw-strike Monte Carlo: one
// sfi.MeasureMasking per op with 1 worker over an uninstrumented build,
// built by a callback the benchmark supplies and times.
type maskingBench struct {
	specs map[string]workload.Spec
	// Traced-op probes.
	builds []time.Duration
	regs   *counters
}

func newMaskingBench() *maskingBench { return &maskingBench{regs: newCounters()} }

// setup resolves the mix and warms the interpreter with one golden run
// per application, so the first timed op does not pay for cold memory
// pools.
func (b *maskingBench) setup() error {
	specs := map[string]workload.Spec{}
	for _, a := range mix {
		sp, err := workload.ByName(a.name)
		if err != nil {
			return err
		}
		art := sp.Build()
		m := interp.New(art.Mod, interp.Config{})
		_, err = m.Run()
		m.Release()
		if err != nil {
			return fmt.Errorf("%s: golden run: %w", a.name, err)
		}
		specs[a.name] = sp
	}
	b.specs = specs
	return nil
}

func (b *maskingBench) teardown() error { return nil }

// epochOps is six blocks of the masking mix, about four seconds of ops.
func (b *maskingBench) epochOps() int { return 48 }

// maskingTally is the oracle's view of a masking result.
func maskingTally(r *sfi.MaskingResult) string {
	return fmt.Sprintf("masked=%d visible=%d not-injected=%d", r.ArchMasked, r.ArchVisible, r.NotInjected)
}

func (b *maskingBench) runOne(o op, tr *tracer) opRun {
	sp := b.specs[o.App]
	reg := obs.NewRegistry()
	start := time.Now()
	opSpan := tr.reserve("op", o.Index, -1, start)
	sfiSpan := tr.reserve("sfi.MeasureMasking", o.Index, opSpan, start)
	var build time.Duration
	res, err := sfi.MeasureMasking(func() (*ir.Module, []*ir.Global) {
		t0 := time.Now()
		art := sp.Build()
		t1 := time.Now()
		build = t1.Sub(t0)
		tr.add("workload.Build", o.Index, sfiSpan, t0, t1)
		return art.Mod, art.Outputs
	}, sfi.MaskingConfig{Trials: o.Trials, Seed: o.Seed, Workers: 1, Obs: reg})
	end := time.Now()
	tr.finish(sfiSpan, end)
	tr.finish(opSpan, end)
	run := opRun{op: o, lat: end.Sub(start)}
	if err != nil {
		run.err = err
		return run
	}
	run.trials = res.Trials
	run.digest = maskingTally(res)
	if tr != nil {
		b.builds = append(b.builds, build)
		b.regs.fold(reg)
	}
	return run
}

// check re-runs the op's study on the reference engine from a fresh build.
func (b *maskingBench) check(r opRun) error {
	sp := b.specs[r.op.App]
	res, err := sfi.MeasureMasking(func() (*ir.Module, []*ir.Global) {
		art := sp.Build()
		return art.Mod, art.Outputs
	}, sfi.MaskingConfig{Trials: r.op.Trials, Seed: r.op.Seed, Workers: 1, Engine: interp.EngineRef, Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	if want := maskingTally(res); want != r.digest {
		return fmt.Errorf("tally %q differs from the reference %q", r.digest, want)
	}
	return nil
}

// layers derives the masking workload's per-layer metrics from the traced
// ops.
func (b *maskingBench) layers(runs []opRun, tr *tracer) map[string]metric {
	var trials float64
	for _, r := range runs {
		trials += float64(r.trials)
	}
	c := b.regs.c
	self := tr.selfTimes()
	n := float64(len(runs))
	return map[string]metric{
		"workload.build_ms":         {median(durationsMS(b.builds)), "ms"},
		"interp.reset_words":        {ratio(float64(b.regs.hsum["interp.reset.words"]), float64(b.regs.hcnt["interp.reset.words"])), "count"},
		"interp.instrs_per_trial":   {ratio(float64(c["interp.instrs.total"]), trials), "count"},
		"interp.handoffs_per_trial": {ratio(float64(c["interp.handoff.to_ref"]+c["interp.handoff.to_fast"]), trials), "count"},
		"sfi.masked_share":          {ratio(float64(c["sfi.masking.arch_masked"]), trials), "count"},
		"self.sfi_ms":               {ms(self["sfi.MeasureMasking"]) / n, "ms"},
		"self.workload_ms":          {ms(self["workload.Build"]) / n, "ms"},
	}
}

func (b *maskingBench) sideModule(o op) (*ir.Module, []interp.RegionMeta, error) {
	return b.specs[o.App].Build().Mod, nil, nil
}
