package sfi

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/workload"
)

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

// TestClampWorkers pins the normalization contract shared by the -workers
// flag and the Workers config fields.
func TestClampWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, trials, want int
	}{
		{0, 100, min(gmp, 100)},
		{-7, 100, min(gmp, 100)},
		{4, 100, 4},
		{50, 10, 10}, // more workers than trials: capped
		{-1, 0, 1},   // degenerate campaign: one worker floor
		{1000, 1, 1},
	}
	for _, c := range cases {
		if got := ClampWorkers(c.workers, c.trials); got != c.want {
			t.Errorf("ClampWorkers(%d, %d) = %d, want %d", c.workers, c.trials, got, c.want)
		}
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
	e, err := newExecutor(pool, []*ir.Global{out}, DefaultCheckpoints, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
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
