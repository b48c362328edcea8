package main

import (
	"fmt"
	"time"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// checkpoints is the ladder size encore-sfi and encore-serve default to.
const checkpoints = 16

// campaignApp is one compiled application of the campaign mix.
type campaignApp struct {
	res     *core.Result
	outs    []*ir.Global
	regions map[int64][]sfi.RegionInfo // RegionTable per dmax
}

// campaignBench runs batch laddered campaigns the way `encore-sfi -trace
// -stats` does: one compile per application, then one sfi.RunCampaign
// per op with 1 worker, a JSONL ledger and an online estimator.
type campaignBench struct {
	apps map[string]*campaignApp
	// Set-up phase timings per application (all set-ups of the run).
	build, analyze, finalize []time.Duration
	// Traced-op probes.
	probes []*campaignProbe
	regs   *counters
}

func newCampaignBench() *campaignBench { return &campaignBench{regs: newCounters()} }

func (b *campaignBench) setup() error {
	apps := map[string]*campaignApp{}
	reg := obs.NewRegistry()
	for _, a := range mix {
		sp, err := workload.ByName(a.name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		art := sp.Build()
		t1 := time.Now()
		ccfg := core.DefaultConfig()
		ccfg.Obs = reg
		an, err := core.Analyze(art.Mod, ccfg)
		if err != nil {
			return fmt.Errorf("%s: analyze: %w", a.name, err)
		}
		t2 := time.Now()
		res, err := an.Finalize(ccfg)
		if err != nil {
			return fmt.Errorf("%s: finalize: %w", a.name, err)
		}
		t3 := time.Now()
		b.build = append(b.build, t1.Sub(t0))
		b.analyze = append(b.analyze, t2.Sub(t1))
		b.finalize = append(b.finalize, t3.Sub(t2))
		app := &campaignApp{res: res, outs: art.Outputs, regions: map[int64][]sfi.RegionInfo{}}
		for _, d := range dmaxes {
			app.regions[d] = serve.RegionTable(res, d)
		}
		apps[a.name] = app
	}
	b.apps = apps
	return nil
}

func (b *campaignBench) teardown() error { return nil }

// epochOps is two blocks of the campaign mix, about four seconds of ops.
func (b *campaignBench) epochOps() int { return 48 }

// campaignProbe wraps the campaign's StatsSink and ledger writer in a
// traced op: the estimator calls and ledger writes are the only points
// where the trial loop reaches code outside sfi, so their timestamps
// give the prologue, per-trial inter-arrival, observe and emit times.
type campaignProbe struct {
	tr     *tracer
	op     int
	parent int
	est    *stats.Estimator

	start     time.Time
	prologue  time.Duration
	last      time.Time
	emitStart time.Time
	gaps      []time.Duration
	observe   []time.Duration
	emit      []time.Duration
}

func (p *campaignProbe) ObserveCampaign(meta sfi.CampaignMeta) {
	now := time.Now()
	p.prologue = now.Sub(p.start)
	p.last = now
	p.est.ObserveCampaign(meta)
	p.emitStart = time.Now()
}

func (p *campaignProbe) ObserveTrial(rec sfi.TrialRecord) {
	t0 := time.Now()
	p.gaps = append(p.gaps, t0.Sub(p.last))
	p.last = t0
	p.est.ObserveTrial(rec)
	t1 := time.Now()
	p.observe = append(p.observe, t1.Sub(t0))
	p.tr.add("stats.ObserveTrial", p.op, p.parent, t0, t1)
	p.emitStart = t1
}

// wrote closes the emit span of the record just written to the ledger.
func (p *campaignProbe) wrote() {
	now := time.Now()
	p.emit = append(p.emit, now.Sub(p.emitStart))
	p.tr.add("obs.EventSink.Emit", p.op, p.parent, p.emitStart, now)
}

func (b *campaignBench) runOne(o op, tr *tracer) opRun {
	app := b.apps[o.App]
	ledger := newLedgerDigest()
	reg := obs.NewRegistry()
	est := stats.New()
	cfg := sfi.CampaignConfig{
		Trials: o.Trials, Seed: o.Seed, Dmax: o.Dmax, Workers: 1, Checkpoints: checkpoints,
		Obs: reg, App: o.App, Regions: app.regions[o.Dmax],
		Trace: obs.NewJSONLSink(ledger), Stats: est,
	}
	var probe *campaignProbe
	start := time.Now()
	opSpan := tr.reserve("op", o.Index, -1, start)
	sfiSpan := tr.reserve("sfi.RunCampaign", o.Index, opSpan, start)
	if tr != nil {
		probe = &campaignProbe{tr: tr, op: o.Index, parent: sfiSpan, est: est, start: start}
		ledger.onWrite = probe.wrote
		cfg.Stats = probe
	}
	res, err := sfi.RunCampaign(app.res.Mod, app.res.Metas, app.outs, cfg)
	end := time.Now()
	tr.finish(sfiSpan, end)
	tr.finish(opSpan, end)
	run := opRun{op: o, lat: end.Sub(start)}
	if err == nil {
		err = cfg.Trace.Err()
	}
	if err != nil {
		run.err = err
		return run
	}
	run.trials = res.Executed
	run.digest = ledger.sum()
	run.bytes = ledger.n
	if tr != nil {
		b.probes = append(b.probes, probe)
		b.regs.fold(reg)
	}
	return run
}

// check re-derives the op's ledger on an independent path: a fresh build
// and compile, the reference engine, and no checkpoint ladder.
func (b *campaignBench) check(r opRun) error {
	digest, err := refLedger(r.op)
	if err != nil {
		return err
	}
	if digest != r.digest {
		return fmt.Errorf("ledger %.12s differs from the reference %.12s", r.digest, digest)
	}
	return nil
}

// layers derives the campaign workload's per-layer metrics from the
// traced ops.
func (b *campaignBench) layers(runs []opRun, tr *tracer) map[string]metric {
	var gaps, observe, emit, prologue []float64
	for _, p := range b.probes {
		prologue = append(prologue, ms(p.prologue))
		for _, d := range p.gaps {
			gaps = append(gaps, us(d))
		}
		for _, d := range p.observe {
			observe = append(observe, us(d))
		}
		for _, d := range p.emit {
			emit = append(emit, us(d))
		}
	}
	var trials, bytes float64
	for _, r := range runs {
		trials += float64(r.trials)
		bytes += float64(r.bytes)
	}
	c := b.regs.c
	self := tr.selfTimes()
	n := float64(len(runs))
	m := map[string]metric{
		"workload.build_ms":          {median(durationsMS(b.build)), "ms"},
		"core.analyze_ms":            {median(durationsMS(b.analyze)), "ms"},
		"core.finalize_ms":           {median(durationsMS(b.finalize)), "ms"},
		"sfi.prologue_ms":            {median(prologue), "ms"},
		"sfi.trial_us_p50":           {quantile(gaps, 0.5), "us"},
		"sfi.trial_us_p90":           {quantile(gaps, 0.9), "us"},
		"stats.observe_us":           {median(observe), "us"},
		"obs.emit_us":                {median(emit), "us"},
		"obs.ledger_bytes_per_trial": {ratio(bytes, trials), "count"},
		"interp.restore_words":       {ratio(float64(b.regs.hsum["interp.restore.words"]), float64(b.regs.hcnt["interp.restore.words"])), "count"},
		"interp.instrs_per_trial":    {ratio(float64(c["interp.instrs.total"]), trials), "count"},
		"interp.handoffs_per_trial":  {ratio(float64(c["interp.handoff.to_ref"]+c["interp.handoff.to_fast"]), trials), "count"},
		"sfi.fork_ratio":             {ratio(float64(c["sfi.restore.count"]), trials), "count"},
		"sfi.replay_instrs_per_fork": {ratio(float64(c["sfi.restore.replay_instrs"]), float64(c["sfi.restore.count"])), "count"},
		"sfi.recovered_share":        {ratio(float64(c["sfi.outcome.recovered"]), trials), "count"},
		"sfi.masked_share":           {ratio(float64(c["sfi.outcome.benign"]), trials), "count"},
		"self.sfi_ms":                {ms(self["sfi.RunCampaign"]) / n, "ms"},
		"self.stats_ms":              {ms(self["stats.ObserveTrial"]) / n, "ms"},
		"self.obs_ms":                {ms(self["obs.EventSink.Emit"]) / n, "ms"},
	}
	return m
}

func (b *campaignBench) sideModule(o op) (*ir.Module, []interp.RegionMeta, error) {
	app := b.apps[o.App]
	return app.res.Mod, app.res.Metas, nil
}
