package sfi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/workload"
	"encore/internal/workpool"
)

// collector is a StatsSink that keeps the campaign header and every
// trial record it receives, in the order it receives them.
type collector struct {
	meta    CampaignMeta
	records []TrialRecord
}

func (c *collector) ObserveCampaign(meta CampaignMeta) { c.meta = meta }
func (c *collector) ObserveTrial(rec TrialRecord)      { c.records = append(c.records, rec) }

// collect runs a campaign with a collector as its StatsSink and returns
// the result and the records the collector received.
func collect(t *testing.T, res *core.Result, outs []*ir.Global, cfg CampaignConfig) (*CampaignResult, []TrialRecord) {
	t.Helper()
	c := &collector{}
	cfg.Stats = c
	camp, err := RunCampaign(res.Mod, res.Metas, outs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return camp, c.records
}

func buildOf(t *testing.T, name string) (func() (*ir.Module, []*ir.Global), workload.Spec) {
	t.Helper()
	sp, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*ir.Module, []*ir.Global) {
		a := sp.Build()
		return a.Mod, a.Outputs
	}, sp
}

// TestMasking checks the masking Monte Carlo produces sane rates on a
// couple of representative workloads.
func TestMasking(t *testing.T) {
	for _, name := range []string{"175.vpr", "rawcaudio"} {
		build, _ := buildOf(t, name)
		res, err := MeasureMasking(build, MaskingConfig{Trials: 120, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ArchMasked+res.ArchVisible+res.NotInjected != res.Trials {
			t.Errorf("%s: trial accounting broken: %+v", name, res)
		}
		if res.MaskedRate < 0.5 || res.MaskedRate > 1.0 {
			t.Errorf("%s: implausible masked rate %.3f", name, res.MaskedRate)
		}
		t.Logf("%s: archMasked=%.2f total=%.3f", name, res.ArchMaskedRate, res.MaskedRate)
	}
}

// TestCampaignRecovers runs an end-to-end injection campaign against an
// Encore-instrumented workload and requires that a meaningful share of
// faults are actually recovered by rollback, with full accounting.
func TestCampaignRecovers(t *testing.T) {
	for _, name := range []string{"175.vpr", "g721encode", "172.mgrid"} {
		sp, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		art := sp.Build()
		res, err := core.Compile(art.Mod, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{Trials: 150, Seed: 7, Dmax: 100})
		if err != nil {
			t.Fatalf("%s: campaign: %v", name, err)
		}
		sum := 0
		for _, c := range camp.Counts {
			sum += c
		}
		if sum != camp.Trials {
			t.Errorf("%s: outcome accounting broken: %+v", name, camp.Counts)
		}
		if camp.Counts[Recovered] == 0 {
			t.Errorf("%s: no faults recovered by rollback at all: %+v", name, camp.Counts)
		}
		t.Logf("%s: recovered=%d benign=%d unrec=%d recwrong=%d sdc=%d crash=%d sameInst=%d",
			name, camp.Counts[Recovered], camp.Counts[Benign],
			camp.Counts[DetectedUnrecoverable], camp.Counts[RecoveredWrong],
			camp.Counts[SilentCorruption], camp.Counts[Crashed], camp.SameInstance)
	}
}

// TestLatencyGradient: measured same-instance recovery must degrade as
// detection latency grows — the relationship Equation 7 formalizes.
func TestLatencyGradient(t *testing.T) {
	sp, err := workload.ByName("rawdaudio")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var same []int
	for _, dmax := range []int64{10, 100, 1000} {
		camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
			Trials: 200, Seed: 3, Dmax: dmax,
		})
		if err != nil {
			t.Fatal(err)
		}
		same = append(same, camp.SameInstance)
	}
	if !(same[0] >= same[1] && same[1] >= same[2]) {
		t.Errorf("same-instance recoveries must fall with latency: %v", same)
	}
	t.Logf("same-instance recoveries at Dmax 10/100/1000: %v", same)
}

// TestModelTracksMeasurement: the Equation-7 analytic prediction of
// same-instance recovery must land within a loose band of the measured
// rate (the paper's model is intentionally conservative).
func TestModelTracksMeasurement(t *testing.T) {
	for _, name := range []string{"rawcaudio", "g721encode", "175.vpr"} {
		sp, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		art := sp.Build()
		res, err := core.Compile(art.Mod, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cov := res.RecoverableCoverage(100)
		predicted := cov.RecovIdem + cov.RecovCkpt
		camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
			Trials: 300, Seed: 5, Dmax: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		injected := camp.Trials - camp.Counts[NotInjected]
		measured := float64(camp.SameInstance) / float64(injected)
		if measured < predicted-0.15 {
			t.Errorf("%s: measured same-instance rate %.3f far below prediction %.3f",
				name, measured, predicted)
		}
		t.Logf("%s: predicted %.3f, measured %.3f", name, predicted, measured)
	}
}

// TestWorkersDegradeGracefully is the regression test for the clamping
// bugfix: negative and absurdly large Workers requests must produce the
// exact same campaign outcome as the serial path, not hang or error.
// Trial plans are pre-derived from the seed, so the counts are
// deterministic across worker counts.
func TestWorkersDegradeGracefully(t *testing.T) {
	sp, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(workers int) *CampaignResult {
		t.Helper()
		camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
			Trials: 60, Seed: 3, Dmax: 50, Workers: workers, Obs: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return camp
	}
	serial := runWith(1)
	for _, w := range []int{-4, 0, 7, 6000} {
		got := runWith(w)
		if got.Counts != serial.Counts || got.SameInstance != serial.SameInstance {
			t.Errorf("workers=%d: counts %v sameInst %d, want %v / %d",
				w, got.Counts, got.SameInstance, serial.Counts, serial.SameInstance)
		}
	}

	build, _ := buildOf(t, "rawcaudio")
	maskWith := func(workers int) *MaskingResult {
		t.Helper()
		m, err := MeasureMasking(build, MaskingConfig{
			Trials: 60, Seed: 3, Workers: workers, Obs: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("masking workers=%d: %v", workers, err)
		}
		return m
	}
	mSerial := maskWith(1)
	for _, w := range []int{-4, 6000} {
		got := maskWith(w)
		if *got != *mSerial {
			t.Errorf("masking workers=%d: %+v, want %+v", w, got, mSerial)
		}
	}
}

// TestCampaignMetrics checks that a campaign folds its outcome counts and
// worker throughput into the configured registry.
func TestCampaignMetrics(t *testing.T) {
	sp, err := workload.ByName("rawdaudio")
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
		Trials: 40, Seed: 11, Dmax: 80, Workers: 2, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sfi.trials").Value(); got != int64(camp.Trials) {
		t.Errorf("sfi.trials = %d, want %d", got, camp.Trials)
	}
	if got := reg.Counter("sfi.outcome.recovered").Value(); got != int64(camp.Counts[Recovered]) {
		t.Errorf("sfi.outcome.recovered = %d, want %d", got, camp.Counts[Recovered])
	}
	snap := reg.Snapshot()
	var sawRate, sawSpan bool
	for _, h := range snap.Histograms {
		if h.Name == "sfi.worker.trials_per_sec" && h.Count > 0 {
			sawRate = true
		}
	}
	for _, s := range snap.Spans {
		if s.Name == "sfi/campaign" && s.Count == 1 {
			sawSpan = true
		}
	}
	if !sawRate {
		t.Error("missing sfi.worker.trials_per_sec histogram observations")
	}
	if !sawSpan {
		t.Error("missing sfi/campaign span")
	}
}

// TestMachinePoolRelease is the white-box check of the campaign machine
// pool: idle machines are reused last-in first-out, so reuse does not
// depend on the garbage collector, and release hands back every machine
// the pool built — idle ones and ones still leased, as on a campaign's
// error and cancel paths — leaving none holding a memory image.
func TestMachinePoolRelease(t *testing.T) {
	res, _ := compileApp(t, "rawcaudio")
	pool := newMachinePool(res.Mod, res.Metas, interp.EngineFast)
	a, b := pool.get(), pool.get()
	if a == b {
		t.Fatal("two leases returned the same machine")
	}
	pool.put(a)
	pool.put(b)
	if got := pool.get(); got != b {
		t.Fatal("get did not return the most recently put machine")
	}
	// b stays leased, as a machine does when its campaign fails or is
	// canceled; a is idle.
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	pool.release()
	for i, w := range []*interp.Machine{a, b} {
		if w.Mem != nil {
			t.Errorf("machine %d still holds its %d-word image after release", i, len(w.Mem))
		}
	}
	if len(pool.all) != 0 || len(pool.free) != 0 {
		t.Errorf("pool keeps %d built / %d idle machines after release", len(pool.all), len(pool.free))
	}
}

// TestMachinePoolConcurrent leases and returns machines from several
// goroutines at once, as runTrials' workers do: no machine is ever held
// by two goroutines, the pool builds at most one machine per concurrent
// lease, and release still finds every one of them.
func TestMachinePoolConcurrent(t *testing.T) {
	res, _ := compileApp(t, "rawcaudio")
	pool := newMachinePool(res.Mod, res.Metas, interp.EngineFast)
	const workers = 4
	var (
		mu     sync.Mutex
		leased = map[*interp.Machine]bool{}
		seen   = map[*interp.Machine]bool{}
		wg     sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				w := pool.get()
				mu.Lock()
				if leased[w] {
					t.Error("machine leased to two goroutines at once")
				}
				leased[w], seen[w] = true, true
				mu.Unlock()
				runtime.Gosched() // hold the lease while others run
				mu.Lock()
				leased[w] = false
				mu.Unlock()
				pool.put(w)
			}
		}()
	}
	wg.Wait()
	if len(seen) > workers || len(pool.all) != len(seen) {
		t.Errorf("%d machines built for %d concurrent leases (%d handed out)", len(pool.all), workers, len(seen))
	}
	pool.release()
	for w := range seen {
		if w.Mem != nil {
			t.Error("a machine survived release with its image")
		}
	}
}

// TestMaskingLadderInvariant: the masking study's tallies are the same on
// the Reset-replay path (no ladder) as on the default ladder, for both
// engines and worker counts. On the default engine strikes end early at
// golden rungs; runs pinned to the reference loop never do.
func TestMaskingLadderInvariant(t *testing.T) {
	for _, name := range []string{"175.vpr", "epic", "g721encode"} {
		build, _ := buildOf(t, name)
		var want *MaskingResult
		for _, e := range []interp.Engine{interp.EngineFast, interp.EngineRef} {
			for _, workers := range []int{1, 4} {
				for _, ck := range []int{0, DefaultCheckpoints} {
					reg := obs.NewRegistry()
					got, err := measureMasking(build, MaskingConfig{Trials: 60, Seed: 1234, Workers: workers, Engine: e, Obs: reg}, ck)
					if err != nil {
						t.Fatalf("%s/%s/w%d/ck%d: %v", name, e, workers, ck, err)
					}
					if want == nil {
						want = got
					} else if *got != *want {
						t.Errorf("%s/%s/w%d/ck%d: %+v, want %+v", name, e, workers, ck, got, want)
					}
					n := reg.Counter("sfi.reconverge.count").Value()
					if early := ck > 0 && e == interp.EngineFast; early != (n > 0) {
						t.Errorf("%s/%s/w%d/ck%d: sfi.reconverge.count = %d", name, e, workers, ck, n)
					}
				}
			}
		}
	}
}

// TestTrialBudgetEndsRunaway runs one trial straight through the
// executor on a hand-built counting loop. The strike flips the loop
// counter's sign bit, so the loop test holds for 2⁶³ iterations: the
// trial must trap with ErrBudget at exactly the trial budget, classify
// as Crashed, and count once in sfi.hang.count.
func TestTrialBudgetEndsRunaway(t *testing.T) {
	mod := ir.NewModule("spin")
	out := mod.NewGlobal("out", 1)
	f := mod.NewFunc("main", 0)
	entry, loop, done := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("done")
	i, n, c, a := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.Const(i, 0)
	entry.Const(n, 1000)
	entry.Jmp(loop)
	loop.AddI(i, i, 1)
	loop.Bin(ir.OpLt, c, i, n)
	loop.Br(c, loop, done)
	done.GlobalAddr(a, out)
	done.Store(a, 0, i)
	done.Ret(i)
	f.Recompute()

	reg := obs.NewRegistry()
	pool := newMachinePool(mod, nil, interp.EngineFast)
	defer pool.release()
	g, err := prepare(pool, []*ir.Global{out}, DefaultCheckpoints, reg)
	if err != nil {
		t.Fatal(err)
	}
	e := g.executor(0, reg)
	if want := hangFactor*e.total + hangFloor; e.budget != want {
		t.Fatalf("trial budget %d, want %d·%d + %d = %d", e.budget, hangFactor, e.total, hangFloor, want)
	}
	w := pool.get()
	defer pool.put(w)
	plan := interp.FaultPlan{Mode: interp.CorruptRegFile, InjectAt: e.total / 2, TargetReg: int(i), Bit: 63, DetectLatency: 1 << 60}
	o, rep, _, runErr := e.trial(w, plan)
	if !errors.Is(runErr, interp.ErrBudget) || o != Crashed || !rep.Injected {
		t.Fatalf("runaway trial: outcome %s err %v injected %v; want crashed with ErrBudget", o, runErr, rep.Injected)
	}
	if w.Count != e.budget {
		t.Errorf("trial trapped at count %d, want the trial budget %d", w.Count, e.budget)
	}
	if got := reg.Counter("sfi.hang.count").Value(); got != 1 {
		t.Errorf("sfi.hang.count = %d, want 1", got)
	}
}

// TestTrialBudget pins the budget arithmetic, including the caps that
// keep it from overflowing.
func TestTrialBudget(t *testing.T) {
	const limit = 1 << 32
	const edge = (limit - hangFloor) / hangFactor // smallest golden length at the cap
	cases := []struct {
		total, dmax, want int64
	}{
		{1000, 0, 64_000 + hangFloor},
		{1000, 100, 64_100 + hangFloor},
		{1000, limit - 64_000 - hangFloor - 1, limit - 1},
		{1000, math.MaxInt64, limit},
		{edge - 1, 0, hangFactor*(edge-1) + hangFloor},
		{edge, 0, limit},
		{math.MaxInt64, 0, limit},
	}
	for _, c := range cases {
		if got := trialBudget(c.total, c.dmax, limit); got != c.want {
			t.Errorf("trialBudget(%d, %d) = %d, want %d", c.total, c.dmax, got, c.want)
		}
	}
}

// cancelAfter is a collector that cancels its campaign once it has
// received n records.
type cancelAfter struct {
	collector
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) ObserveTrial(rec TrialRecord) {
	c.collector.ObserveTrial(rec)
	if len(c.records) == c.n {
		c.cancel()
	}
}

// TestCampaignCancel cancels a four-worker campaign from its StatsSink
// mid-run, with and without adaptive stopping. Shards already handed out
// still finish, and shards go out in trial order, so the executed trials
// form a prefix: the sink must have received exactly the executed
// records, in trial order, and the counts must cover exactly them. The
// bounded window caps how far the run goes on: no trial starts W (four
// of the campaign's shards per worker) or more past the drain, and the
// other three workers may each still hold a dispatch shard (the
// campaign's, or an adaptive round's smaller one) pulled before the
// cancel.
func TestCampaignCancel(t *testing.T) {
	res, art := compileApp(t, "175.vpr")
	// At this target the stopper starts skipping before the n-th record.
	const trials, n, workers = 400, 60, 4
	window := 4 * workers * shardSize(trials, workers)
	for _, stop := range []*Stopper{nil, {TargetCI: 0.2, Round: 16}} {
		shard := shardSize(trials, workers)
		if stop != nil {
			shard = shardSize(stop.Round, workers)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelAfter{n: n, cancel: cancel}
		camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
			Trials: trials, Seed: 5, Dmax: 100, Workers: workers,
			Obs: obs.NewRegistry(), Stats: sink, Ctx: ctx, Stop: stop,
		})
		cancel()
		label := fmt.Sprintf("stop=%v", stop != nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled", label, err)
		}
		if camp.Executed < n || camp.Executed+camp.Skipped > trials {
			t.Fatalf("%s: executed %d, skipped %d of %d after a cancel at %d records",
				label, camp.Executed, camp.Skipped, trials, n)
		}
		if over := camp.Executed - n; over > window+(workers-1)*shard {
			t.Errorf("%s: %d trials executed after the cancel, want at most %d", label, over, window+(workers-1)*shard)
		}
		t.Logf("%s: executed %d, skipped %d of %d (window %d, shard %d)", label, camp.Executed, camp.Skipped, trials, window, shard)
		if len(sink.records) != camp.Executed {
			t.Errorf("%s: sink received %d records for %d executed trials", label, len(sink.records), camp.Executed)
		}
		for i, rec := range sink.records {
			if i > 0 && rec.Trial <= sink.records[i-1].Trial {
				t.Fatalf("%s: record %d is trial %d after trial %d", label, i, rec.Trial, sink.records[i-1].Trial)
			}
			if stop == nil && rec.Trial != i {
				t.Fatalf("%s: record %d is trial %d, want the prefix 0..%d", label, i, rec.Trial, camp.Executed-1)
			}
		}
		sum := 0
		for _, c := range camp.Counts {
			sum += c
		}
		if sum != camp.Executed {
			t.Errorf("%s: counts sum to %d, executed %d", label, sum, camp.Executed)
		}
	}
}

// panicAfter is a StatsSink that panics on its n-th record.
type panicAfter struct {
	n, seen int
}

func (p *panicAfter) ObserveCampaign(CampaignMeta) {}
func (p *panicAfter) ObserveTrial(TrialRecord) {
	if p.seen++; p.seen == p.n {
		panic("sink")
	}
}

// TestCampaignSinkPanic: a StatsSink that panics mid-campaign must reach
// RunCampaign's caller as a *workpool.WorkerPanic, with and without
// adaptive stopping. The drain stalls at the panic, so workers waiting
// for a window slot, or for the drain to reach their adaptive round,
// must be released instead of waiting forever. The stopper's target is
// unreachable, so no trial is skipped and the 32nd record is trial 31,
// the last of the second 16-trial round: the panic stalls the drain
// just before the gate of the round the other workers wait at.
func TestCampaignSinkPanic(t *testing.T) {
	res, art := compileApp(t, "175.vpr")
	for _, stop := range []*Stopper{nil, {TargetCI: 1e-9, Round: 16}} {
		got := func() (v any) {
			defer func() { v = recover() }()
			RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
				Trials: 400, Seed: 5, Dmax: 100, Workers: 4,
				Obs: obs.NewRegistry(), Stats: &panicAfter{n: 32}, Stop: stop,
			})
			return nil
		}()
		wp, ok := got.(*workpool.WorkerPanic)
		if !ok || wp.Value != "sink" {
			t.Fatalf("stop=%v: RunCampaign panicked with %T %v, want a *workpool.WorkerPanic carrying the sink's panic", stop != nil, got, got)
		}
	}
}

// TestPlanFormula: trial t's plan, drawn from trialRNG's formula, is the
// t-th plan of one sequential draw stream, for campaign and masking plans
// alike. A plan that drew a fourth value would shift every later plan of
// the stream and fail here.
func TestPlanFormula(t *testing.T) {
	const seed, total = 7, 1 << 20
	for _, s := range []struct {
		name string
		salt uint64
		draw func(r *rng) interp.FaultPlan
	}{
		{"campaign", campaignSalt, func(r *rng) interp.FaultPlan { return campaignPlan(r, total, 32, 100) }},
		{"masking", maskingSalt, func(r *rng) interp.FaultPlan { return maskingPlan(r, total) }},
	} {
		seq := rng(seed ^ s.salt)
		for i := 0; i < 1000; i++ {
			want := s.draw(&seq)
			if got := s.draw(trialRNG(seed^s.salt, i)); got != want {
				t.Fatalf("%s trial %d: formula plan %+v, sequential %+v", s.name, i, got, want)
			}
		}
	}
}

// TestShardMemoryIndependentOfTrials: a campaign allocates for the trials
// it runs, not for the trial space it belongs to. Shard 1/1000 of a
// million trials runs the same 1 000 trials as a 1 000-trial campaign
// and must allocate about as much.
func TestShardMemoryIndependentOfTrials(t *testing.T) {
	res, art := compileApp(t, "rawcaudio")
	alloc := func(cfg CampaignConfig) uint64 {
		// Two collections empty the interpreter's pool of memory images,
		// so both runs allocate their machines afresh.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	base := CampaignConfig{Trials: 1000, Seed: 3, Dmax: 100, Workers: 2, Checkpoints: DefaultCheckpoints, Obs: obs.NewRegistry()}
	small := alloc(base)
	base.Trials, base.Shard = 1000000, &ShardRange{Index: 1, Count: 1000}
	shard := alloc(base)
	t.Logf("TotalAlloc: 1000-trial campaign %.1f MB, shard 1/1000 of 10⁶ trials %.1f MB", float64(small)/1e6, float64(shard)/1e6)
	if shard > small+4<<20 {
		t.Errorf("shard 1/1000 of 10⁶ trials allocated %d B, a 1000-trial campaign %d B", shard, small)
	}
}

// TestCampaignResultSinkInvariant: attaching a StatsSink or a Trace
// changes nothing in the campaign result, at one worker or four, with
// and without adaptive stopping.
func TestCampaignResultSinkInvariant(t *testing.T) {
	res, art := compileApp(t, "175.vpr")
	sinks := []struct {
		label string
		set   func(*CampaignConfig)
	}{
		{"none", func(*CampaignConfig) {}},
		{"stats", func(c *CampaignConfig) { c.Stats = &collector{} }},
		{"trace", func(c *CampaignConfig) { c.Trace = obs.NewJSONLSink(&bytes.Buffer{}) }},
	}
	for _, stop := range []*Stopper{nil, {TargetCI: 0.2, Round: 16}} {
		var want *CampaignResult
		for _, workers := range []int{1, 4} {
			for _, s := range sinks {
				cfg := CampaignConfig{Trials: 120, Seed: 5, Dmax: 100, Workers: workers, Obs: obs.NewRegistry(), Stop: stop}
				s.set(&cfg)
				camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = camp
				} else if *camp != *want {
					t.Errorf("stop=%v workers=%d sink=%s: %+v, want %+v", stop != nil, workers, s.label, camp, want)
				}
			}
		}
		if stop != nil && want.Skipped == 0 {
			t.Error("adaptive variant skipped nothing; the case does not exercise skips")
		}
	}
}
