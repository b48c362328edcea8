// Package sfi performs the statistical fault injection experiments of
// paper §4–5: the Monte-Carlo hardware-masking study that calibrates
// Figure 8's Masked segment, and end-to-end injection campaigns that
// exercise Encore's instrumented rollback recovery and validate the
// analytical coverage model.
//
// Substitution note (see DESIGN.md): the paper derives masking from SFI on
// a Verilog ARM926 RTL model. Lacking RTL, we inject bit flips into
// architectural state (the register file) during interpretation and apply
// a documented latch/propagation derating factor for the strikes that a
// gate-level model would absorb before they reach architectural state.
package sfi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/trace"
	"encore/internal/workpool"
)

// rng is the deterministic generator for fault plans: splitmix64, whose
// state advances by the constant gamma on every draw.
type rng uint64

const gamma = 0x9e3779b97f4a7c15

func (r *rng) next() uint64 {
	*r += gamma
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws uniformly from [0, n), or returns 0 for n <= 0; it draws
// once either way, so a plan's draw count never depends on its inputs.
func (r *rng) intn(n int64) int64 {
	v := r.next()
	if n <= 0 {
		return 0
	}
	return int64(v % uint64(n))
}

// Every fault plan draws exactly planDraws values from a stream seeded at
// seed^salt, so trialRNG(seed^salt, t) starts where that stream stands
// after t plans, t·planDraws steps of gamma in: a plan is a pure function
// of (seed, trial), and no campaign or study keeps a plan table.
const (
	planDraws    = 3
	campaignSalt = 0xFA0C7
	maskingSalt  = 0xDEADBEEF
)

// trialRNG returns trial t's plan generator in the stream seeded at base.
func trialRNG(base uint64, t int) *rng {
	r := rng(base + uint64(t)*planDraws*gamma)
	return &r
}

// campaignPlan draws a campaign trial's output corruption: the dynamic
// instruction it strikes, the bit it flips below bits, and a detection
// latency uniform over [0, dmax] for every dmax >= 0.
func campaignPlan(r *rng, total int64, bits int, dmax int64) interp.FaultPlan {
	return interp.FaultPlan{
		Mode:          interp.CorruptOutput,
		InjectAt:      r.intn(total),
		Bit:           uint8(r.intn(int64(bits))),
		DetectLatency: int64(r.next() % (uint64(dmax) + 1)),
	}
}

// maskingPlan draws a masking trial's raw register-file strike.
func maskingPlan(r *rng, total int64) interp.FaultPlan {
	return interp.FaultPlan{
		Mode:          interp.CorruptRegFile,
		InjectAt:      r.intn(total),
		TargetReg:     int(r.intn(1 << 16)),
		Bit:           uint8(r.intn(maskingBits)),
		DetectLatency: 1 << 60, // never "detected": raw strike study
	}
}

// DefaultCheckpoints is the golden-run ladder target the encore-sfi and
// encore-serve commands and the experiment harness run campaigns with
// (CampaignConfig.Checkpoints), and the one every masking study runs on.
// A target K gives a golden run longer than K·interp.LadderFloor
// instructions K to 2K−1 rungs.
const DefaultCheckpoints = 16

// DefaultLatchFraction is the fraction of raw state-element strikes that
// latch and propagate to architecturally visible state. Gate-level SFI
// studies on the ARM926 class of cores (e.g. Blome et al., CASES 2006 —
// the model the paper itself uses) absorb roughly two thirds of strikes in
// combinational masking, clock gating, and microarchitecturally dead
// state; we fold that into a single documented derating constant.
const DefaultLatchFraction = 0.35

// maskingBits is the datapath width the masking study flips within.
const maskingBits = 32

// MaskingConfig parametrizes the hardware-masking Monte Carlo. The study
// always runs on a golden-run ladder targeting DefaultCheckpoints rungs.
type MaskingConfig struct {
	Trials  int
	Seed    uint64
	Workers int // trial parallelism; workpool.Clamp normalizes it against the trial count

	// Engine selects the interpreter engine the golden run and every
	// trial machine use. All engines produce bit-identical trial
	// outcomes; the choice only affects throughput.
	Engine interp.Engine

	// Obs selects the metrics registry for the "sfi/masking" span, the
	// per-outcome counters, and worker throughput. Nil selects
	// obs.Default().
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed trial. The
	// caller owns it and calls Finish.
	Progress *obs.Progress
}

// MaskingResult reports the masking study's outcome.
type MaskingResult struct {
	Trials      int
	ArchMasked  int // output identical to golden despite the strike
	ArchVisible int // output differed or the run failed
	NotInjected int // program finished before the strike's slot

	// MaskedRate is the overall fraction of raw transient events that are
	// masked: architecturally masked strikes plus the latch-derated ones.
	MaskedRate float64
	// ArchMaskedRate is the architectural-only masking fraction.
	ArchMaskedRate float64
}

// MeasureMasking runs the Monte-Carlo masking study on an uninstrumented
// module: random register-file bit flips at random dynamic instructions,
// classified by comparing final output with a golden run. Trials run on
// the campaign trial path (fork from the ladder, early exit at a golden
// rung); a strike is never detected, so it settles at injection.
func MeasureMasking(build func() (*ir.Module, []*ir.Global), cfg MaskingConfig) (*MaskingResult, error) {
	return measureMasking(build, cfg, DefaultCheckpoints)
}

// measureMasking is MeasureMasking on a ladder of the given target; at 0
// every trial replays from Reset and runs to the end.
func measureMasking(build func() (*ir.Module, []*ir.Global), cfg MaskingConfig, checkpoints int) (*MaskingResult, error) {
	if cfg.Trials < 0 {
		return nil, fmt.Errorf("sfi: negative trial count %d (0 selects the default)", cfg.Trials)
	}
	if cfg.Trials == 0 {
		cfg.Trials = 200
	}
	reg := obs.Or(cfg.Obs)
	sp := reg.Span("sfi/masking")
	defer sp.End()
	mod, outs := build()
	pool := newMachinePool(mod, nil, cfg.Engine)
	defer pool.release()
	g, err := prepare(pool, outs, checkpoints, reg)
	if err != nil {
		return nil, err
	}
	e := g.executor(0, reg)

	// Execute trials on a bounded worker pool (each worker owns one
	// machine), each deriving its plan from (seed, t); results are
	// order-independent counters.
	res := &MaskingResult{Trials: cfg.Trials}
	var mu sync.Mutex
	workers := workpool.Clamp(cfg.Workers, cfg.Trials)
	runTrials(pool, 0, cfg.Trials, workers, shardSize(cfg.Trials, workers), nil, reg, cfg.Progress, func(w *interp.Machine, t int) {
		o, _, _, _ := e.trial(w, maskingPlan(trialRNG(cfg.Seed^maskingSalt, t), e.total))
		mu.Lock()
		defer mu.Unlock()
		switch o {
		case Benign:
			res.ArchMasked++
		case NotInjected:
			res.NotInjected++
		default:
			res.ArchVisible++ // wrong output, trap or hang: architecturally visible
		}
	})
	inj := res.ArchMasked + res.ArchVisible
	if inj > 0 {
		res.ArchMaskedRate = float64(res.ArchMasked) / float64(inj)
	}
	visible := (1 - res.ArchMaskedRate) * DefaultLatchFraction
	res.MaskedRate = 1 - visible
	reg.Add("sfi.masking.trials", int64(res.Trials))
	reg.Add("sfi.masking.arch_masked", int64(res.ArchMasked))
	reg.Add("sfi.masking.arch_visible", int64(res.ArchVisible))
	reg.Add("sfi.masking.not_injected", int64(res.NotInjected))
	return res, nil
}

// Outcome classifies one end-to-end fault injection trial.
type Outcome uint8

// Trial outcomes.
const (
	// NotInjected: the program completed before the fault's slot.
	NotInjected Outcome = iota
	// Benign: the detector never fired and the output still matched the
	// golden run (architecturally masked).
	Benign
	// Recovered: the detector fired, Encore rolled back, and the final
	// output matched the golden run.
	Recovered
	// DetectedUnrecoverable: the detector fired with no valid rollback
	// target (unprotected region, or the owning frame was gone).
	DetectedUnrecoverable
	// RecoveredWrong: rollback executed but the output still diverged
	// (the fault escaped the region before detection).
	RecoveredWrong
	// SilentCorruption: no detection and wrong output.
	SilentCorruption
	// Crashed: the run failed even after any recovery attempt.
	Crashed
	numOutcomes
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case NotInjected:
		return "not-injected"
	case Benign:
		return "benign"
	case Recovered:
		return "recovered"
	case DetectedUnrecoverable:
		return "detected-unrecoverable"
	case RecoveredWrong:
		return "recovered-wrong"
	case SilentCorruption:
		return "silent-corruption"
	case Crashed:
		return "crashed"
	}
	return "?"
}

// MarshalText implements encoding.TextMarshaler with the String names, so
// trace JSONL and report JSON carry stable outcome words rather than enum
// ordinals. Marshaling an out-of-range outcome is an error.
func (o Outcome) MarshalText() ([]byte, error) {
	s := o.String()
	if s == "?" {
		return nil, fmt.Errorf("sfi: cannot marshal invalid outcome %d", uint8(o))
	}
	return []byte(s), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting exactly the
// names String produces.
func (o *Outcome) UnmarshalText(text []byte) error {
	name := string(text)
	for c := Outcome(0); c < numOutcomes; c++ {
		if c.String() == name {
			*o = c
			return nil
		}
	}
	return fmt.Errorf("sfi: unknown outcome %q", name)
}

// StatsSink receives a campaign's header and trial records in ledger
// order for online aggregation (internal/stats implements it). The
// contract mirrors the Trace stream: ObserveCampaign is called once
// after the golden run and before any trial, then ObserveTrial is
// called exactly once per executed trial in strictly increasing trial
// order, regardless of Workers or Engine — so any deterministic
// accumulator fed through a StatsSink is bit-identical across those
// knobs. When both a Trace sink and a StatsSink are attached, each
// record reaches the StatsSink before its trace line is emitted (a
// reader of the trace never observes a record the stats have not
// folded yet).
type StatsSink interface {
	// ObserveCampaign delivers the campaign header.
	ObserveCampaign(meta CampaignMeta)
	// ObserveTrial delivers one trial record, in trial order.
	ObserveTrial(rec TrialRecord)
}

// CampaignConfig parametrizes an end-to-end injection campaign against an
// instrumented module.
type CampaignConfig struct {
	Trials  int
	Seed    uint64
	Bits    int   // datapath width (default 32)
	Dmax    int64 // maximum detection latency, uniform [0, Dmax]
	Workers int   // trial parallelism; workpool.Clamp normalizes it against the trials run

	// Engine selects the interpreter engine the golden run and every
	// trial machine use for quiescent execution (the active phase of each
	// fault always runs on the reference loop). Campaign results and the
	// trial ledger are bit-identical across engines — the engine
	// equivalence tests pin that down — so the choice only affects trial
	// throughput.
	Engine interp.Engine

	// Checkpoints enables fork-from-snapshot trial execution. It is a
	// target K, not an exact rung count: the golden run itself captures
	// evenly spaced machine snapshots as it goes (interp.RunLadder from
	// interp.LadderFloor), ending with K to 2K−1 rungs once it is longer
	// than K·LadderFloor instructions, fewer on a shorter run and none
	// at or below LadderFloor. Each trial restores the deepest snapshot
	// strictly before its InjectAt instead of re-executing the whole
	// golden prefix. The same ladder ends each trial early once its
	// settled fault's state rejoins the golden run at a later rung
	// (interp.ArmReconverge). Zero disables both (a plain golden run, and
	// every trial replays from Reset and runs to the end, the historical
	// behavior); negative is an error. Trial outcomes, the ledger, stats,
	// shard slices, and adaptive decisions are bit-identical at any
	// checkpoint count — TestCheckpointLedgerInvariant pins that down —
	// so the knob only affects throughput. The commands and the
	// experiment harness run at DefaultCheckpoints.
	Checkpoints int

	// Obs selects the metrics registry for the "sfi/campaign" span, the
	// "sfi.outcome.*" counters, and worker throughput. Nil selects
	// obs.Default().
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed trial. The
	// caller owns it and calls Finish.
	Progress *obs.Progress

	// App labels the campaign in the trace ledger's header record.
	App string
	// Regions is the per-region prediction table joined into the ledger
	// (idempotence class at the injection site, α predictions in the
	// header record). Optional; without it site regions carry no class.
	Regions []RegionInfo
	// Trace, when non-nil, receives one campaign header line (after the
	// golden run, before any trial) followed by one trial line per
	// executed trial, emitted incrementally in trial order as the
	// completed prefix of the campaign grows — the stream is
	// deterministic given Seed regardless of Workers or Engine, and
	// its final bytes are identical to an end-of-campaign dump. Emission
	// runs in the trial-order drain, under the lock that guards the
	// bounded window of finished records, so a slow sink slows the
	// workers but never reorders the stream.
	Trace *obs.EventSink
	// Stats, when non-nil, receives the campaign header and then every
	// executed trial's record in trial order (see StatsSink). Attaching a
	// sink does not change trial outcomes or the Trace stream's bytes —
	// it only adds the ordered delivery.
	Stats StatsSink

	// Ctx, when non-nil, cancels the campaign cooperatively: once done,
	// no further trial shards are scheduled, shards already handed out
	// finish, and RunCampaign returns the partial result together with
	// ctx's error. Shards go out in trial order, so the trials reached
	// are a prefix of the run, and the result and both sinks cover
	// exactly that prefix. No trial starts W or more past the first
	// trial the drain has not passed, where W is four of the campaign's
	// heuristic shards per worker, so a cancel issued from a sink lets at
	// most W plus the other workers' held shards run on. A nil Ctx never
	// cancels.
	Ctx context.Context

	// Shard, when non-nil, restricts execution to shard Index of Count
	// of the trial space: only Shard.Bounds(Trials) executes, and only
	// those records reach the Trace stream and the StatsSink. A trial's
	// plan depends on (Seed, trial) alone, so trial indices, sites and
	// latencies are global and the records are the exact bytes the
	// corresponding lines of a single-process run would carry. An index
	// outside [1, Count] is an error. Incompatible with Stop (adaptive
	// decisions need the global record stream).
	Shard *ShardRange
	// Stop, when non-nil, enables variance-aware adaptive stopping: the
	// campaign predicts each planned trial's strike region from one
	// hooked golden run and, once the drain has passed every earlier
	// round, skips the trial if that region's recovery-rate Wilson
	// interval had converged below Stop's target by the end of those
	// rounds. Skipped trials execute nothing and emit nothing;
	// CampaignResult.Skipped counts them and the Trace stream and the
	// StatsSink carry exactly the executed subset, in trial order,
	// identically across Workers and Engine.
	Stop *Stopper
	// Prior seeds adaptive stopping with a previous campaign's per-region
	// tallies, keyed by region content hash (see PriorRegion). Regions
	// whose code is unchanged since the prior run start from its counts
	// — if the prior campaign converged them, they are never re-injected
	// — while changed regions (different hash) start cold. Ignored when
	// Stop is nil.
	Prior []PriorRegion
}

// CampaignResult aggregates trial outcomes.
type CampaignResult struct {
	Trials int
	// Executed counts the trials that actually ran; it equals Trials
	// unless the campaign ran one Shard of the trial space, adaptive
	// stopping (Stop) skipped converged trials, or the campaign's Ctx
	// canceled it mid-flight.
	Executed int
	// Skipped counts the trials adaptive stopping elided because their
	// predicted region had already converged below the target
	// half-width, among the trials the campaign reached (all of them
	// unless canceled). Trials - Executed - Skipped is the cancellation
	// remainder (zero for a completed run).
	Skipped int
	// Mispredicted counts executed trials whose golden-run region
	// prediction disagreed with the actual strike region. The region map
	// is exact for deterministic workloads, so this is expected to be
	// zero; a non-zero value only costs stopping efficiency, never
	// correctness of the emitted records.
	Mispredicted int
	Counts       [numOutcomes]int

	// SameInstance counts recovered trials whose rollback target was the
	// very region instance the fault struck (the case the paper's α model
	// credits).
	SameInstance int
}

// Rate returns the fraction of injected trials with the given outcome.
func (c *CampaignResult) Rate(o Outcome) float64 {
	injected := c.Trials - c.Counts[NotInjected]
	if injected <= 0 {
		return 0
	}
	return float64(c.Counts[o]) / float64(injected)
}

// RecoveredRate returns the fraction of injected faults fully recovered or
// benign — the survivable fraction.
func (c *CampaignResult) RecoveredRate() float64 {
	return c.Rate(Recovered) + c.Rate(Benign)
}

// RunCampaign injects cfg.Trials output-corrupting faults into the
// instrumented module, each with a uniform random site and a uniform
// random detection latency in [0, Dmax], and classifies every run against
// the golden checksum. Every trial runs under an instruction budget
// derived from the golden run (trialBudget), so a runaway trial ends as
// Crashed long before the interpreter's default budget. Trials, adaptive
// or not, are scheduled as contiguous shards of one workpool.Dispatch on
// a bounded worker pool; a canceled cfg.Ctx stops scheduling at shard
// granularity and RunCampaign returns the partial result with the
// context's error. Zero Trials selects 200; negative is an error.
//
// RunCampaign is Prepare followed by Run on one machine pool, so the
// golden run's machine serves the first trial worker.
func RunCampaign(mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global, cfg CampaignConfig) (*CampaignResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	reg := obs.Or(cfg.Obs)
	sp := reg.Span("sfi/campaign")
	defer sp.End()
	pool := newMachinePool(mod, metas, cfg.Engine)
	defer pool.release()
	g, err := prepare(pool, outs, cfg.Checkpoints, reg)
	if err != nil {
		return nil, err
	}
	return g.run(pool, cfg, reg)
}

// normalize validates cfg and fills in the Trials and Bits defaults.
func (cfg *CampaignConfig) normalize() error {
	if cfg.Trials < 0 {
		return fmt.Errorf("sfi: negative trial count %d (0 selects the default)", cfg.Trials)
	}
	if cfg.Trials == 0 {
		cfg.Trials = 200
	}
	if cfg.Bits < 0 || cfg.Bits > 64 {
		return fmt.Errorf("sfi: Bits %d outside [0, 64] (0 selects 32)", cfg.Bits)
	}
	if cfg.Bits == 0 {
		cfg.Bits = 32
	}
	if cfg.Dmax < 0 {
		return fmt.Errorf("sfi: negative Dmax %d (latency is sampled uniformly from [0, Dmax])", cfg.Dmax)
	}
	if cfg.Checkpoints < 0 {
		return fmt.Errorf("sfi: negative checkpoint count %d (0 disables the ladder)", cfg.Checkpoints)
	}
	if cfg.Shard != nil && cfg.Stop != nil {
		return fmt.Errorf("sfi: Shard and Stop cannot be combined (adaptive stopping decides from the global record stream)")
	}
	if sh := cfg.Shard; sh != nil && (sh.Count < 1 || sh.Index < 1 || sh.Index > sh.Count) {
		return fmt.Errorf("sfi: shard %d/%d: index out of range", sh.Index, sh.Count)
	}
	if cfg.Stop != nil {
		if cfg.Stop.Round < 0 {
			return fmt.Errorf("sfi: negative adaptive round size %d", cfg.Stop.Round)
		}
		if cfg.Stop.TargetCI < 0 {
			return fmt.Errorf("sfi: negative adaptive target CI %g", cfg.Stop.TargetCI)
		}
	}
	return nil
}

// Golden is the seed-independent half of a campaign: the instrumented
// module with its region table and shared pre-decoded Program, and the
// golden run's output checksum, dynamic length and checkpoint ladder,
// captured for one engine and ladder target. None of it depends on a
// campaign's seed, trial count, dmax or sinks. It keeps the golden run's
// idle machine only until its first Run, whose first worker takes it
// over, and holds no machine after that. Nothing else in it is written
// after Prepare returns except the adaptive region map, recorded once on
// first use, and a ladder's snapshots are only read by Restore and the
// reconvergence compare, so any number of campaigns may Run on one
// Golden at once.
type Golden struct {
	mod         *ir.Module
	metas       []interp.RegionMeta
	outs        []*ir.Global
	prog        *interp.Program
	engine      interp.Engine
	checkpoints int

	sum    uint64         // the golden run's output checksum
	total  int64          // the golden run's dynamic length
	limit  int64          // the golden run's own instruction budget
	ladder *interp.Ladder // nil at zero checkpoints

	// regionMap records the golden run's region map for adaptive
	// stopping, a second, hooked golden run on the reference loop, once.
	regionMap func() (*trace.RegionMap, error)
	// spare is Prepare's machine pool, holding the idle golden machine,
	// until the first Run takes it, so that run's first worker reuses
	// the golden machine as RunCampaign's does; nil after.
	spare atomic.Pointer[machinePool]
}

// Prepare runs the golden run of an instrumented module once, on the
// given engine, capturing a checkpoint ladder of the given target when
// it is positive (see CampaignConfig.Checkpoints), and returns the
// Golden that any number of campaigns can then Run on. The ladder
// counters sfi.ladder.rungs and sfi.ladder.captures land in reg (nil
// selects obs.Default()). A campaign run on a Golden emits exactly the
// ledger, stats and result RunCampaign does for the same config.
func Prepare(mod *ir.Module, metas []interp.RegionMeta, outs []*ir.Global, engine interp.Engine, checkpoints int, reg *obs.Registry) (*Golden, error) {
	if checkpoints < 0 {
		return nil, fmt.Errorf("sfi: negative checkpoint count %d (0 disables the ladder)", checkpoints)
	}
	pool := newMachinePool(mod, metas, engine)
	g, err := prepare(pool, outs, checkpoints, obs.Or(reg))
	if err != nil {
		pool.release()
		return nil, err
	}
	g.spare.Store(pool)
	return g, nil
}

// prepare runs the golden run on a pool machine under the default
// budget. When checkpoints > 0 it is a RunLadder pass from
// interp.LadderFloor targeting that many rungs, so the ladder costs no
// extra execution; at 0 it is a plain Run on the pool's engine.
func prepare(pool *machinePool, outs []*ir.Global, checkpoints int, reg *obs.Registry) (*Golden, error) {
	g := &Golden{
		mod: pool.mod, metas: pool.metas, outs: outs, prog: pool.prog,
		engine: pool.engine, checkpoints: checkpoints,
	}
	g.regionMap = sync.OnceValues(func() (*trace.RegionMap, error) {
		return trace.RecordRegionMap(g.mod, g.metas, g.prog)
	})
	m := pool.get()
	defer pool.put(m)
	var err error
	if checkpoints > 0 {
		_, g.ladder, err = m.RunLadder(checkpoints, interp.LadderFloor)
	} else {
		_, err = m.Run()
	}
	if err != nil {
		return nil, fmt.Errorf("sfi: golden run: %w", err)
	}
	g.sum, g.total, g.limit = m.Checksum(outs...), m.Count, m.Cfg.MaxInstrs
	reg.Add("sfi.ladder.rungs", int64(g.ladder.Len()))
	reg.Add("sfi.ladder.captures", int64(g.ladder.Captures()))
	return g, nil
}

// Footprint reports the bytes the golden run's checkpoint ladder holds
// (interp.Ladder.Footprint): zero at zero checkpoints.
func (g *Golden) Footprint() int64 { return g.ladder.Footprint() }

// Run runs one campaign on the prepared golden run: everything
// RunCampaign does after its golden run, on machines of its own. cfg's
// Engine and Checkpoints must be the ones the Golden was prepared with,
// since the ladder and the decoded program belong to them; every other
// field is free. Its "sfi/campaign" span and counters cover the trials
// only.
func (g *Golden) Run(cfg CampaignConfig) (*CampaignResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Engine != g.engine {
		return nil, fmt.Errorf("sfi: campaign engine %s, but the golden run was prepared on %s", cfg.Engine, g.engine)
	}
	if cfg.Checkpoints != g.checkpoints {
		return nil, fmt.Errorf("sfi: campaign checkpoint target %d, but the golden run was prepared for %d", cfg.Checkpoints, g.checkpoints)
	}
	reg := obs.Or(cfg.Obs)
	sp := reg.Span("sfi/campaign")
	defer sp.End()
	pool := g.spare.Swap(nil)
	if pool == nil {
		pool = &machinePool{prog: g.prog, mod: g.mod, metas: g.metas, engine: g.engine}
	}
	defer pool.release()
	return g.run(pool, cfg, reg)
}

// run executes a normalized campaign's trials on pool's machines.
func (g *Golden) run(pool *machinePool, cfg CampaignConfig, reg *obs.Registry) (*CampaignResult, error) {
	e := g.executor(cfg.Dmax, reg)
	res := &CampaignResult{Trials: cfg.Trials}
	plan := func(t int) interp.FaultPlan {
		return campaignPlan(trialRNG(cfg.Seed^campaignSalt, t), g.total, cfg.Bits, cfg.Dmax)
	}
	// Execution range: the whole trial space, or one shard of it; plans
	// are global, so a shard's records are the single-process run's.
	lo, hi := 0, cfg.Trials
	if cfg.Shard != nil {
		lo, hi = cfg.Shard.Bounds(cfg.Trials)
	}
	classOf := make(map[int]string, len(cfg.Regions))
	meta := CampaignMeta{
		App: cfg.App, Trials: cfg.Trials, Seed: cfg.Seed,
		Dmax: cfg.Dmax, Bits: cfg.Bits, GoldenInstrs: g.total,
		Regions: cfg.Regions,
	}
	for _, ri := range cfg.Regions {
		classOf[ri.ID] = ri.Class
		if ri.Selected {
			meta.PredCoverage += ri.DynFrac * ri.Alpha
		}
	}
	// The header depends only on the compile and the golden run, so it
	// leads the stream. Stats see it first so a snapshot taken between
	// header and first trial already carries the prediction table.
	if cfg.Stats != nil {
		cfg.Stats.ObserveCampaign(meta)
	}
	if cfg.Trace != nil {
		cfg.Trace.Emit(campaignEnvelope{Type: traceCampaign, CampaignMeta: meta})
	}
	// Adaptive stopping: predict planned trials' strike regions from the
	// hooked golden run's region map, so a trial aimed at an
	// already-converged region is skipped without executing it.
	var stop *stopRun
	if cfg.Stop != nil {
		rm, err := g.regionMap()
		if err != nil {
			return nil, fmt.Errorf("sfi: %w", err)
		}
		stop = newStopRun(cfg.Stop, rm, cfg.Regions, cfg.Prior, cfg.Trials)
	}
	// The trial-order drain is the one consumer of trial results, under
	// one lock. A worker stores its record in trial t's slot of a ring of
	// window slots (four shards per worker over [lo, hi)), marks it done
	// and drains the done prefix from the cursor, in trial order, folding
	// per executed record the result counters, the adaptive tallies, then
	// the StatsSink before the trace line. A trial window or more past the
	// cursor waits for its slot; under adaptive stopping it also waits
	// until the cursor reaches its round, then asks the stopper once
	// whether to skip, and the drain rescores as it passes a round's last
	// trial, so every decision reads the tallies of exactly the earlier
	// rounds. The cursor's trial never waits, so the ring cannot deadlock
	// and the sinks lag by under window trials. A skipped trial marks its
	// slot done with no record (Trial −1). Shards go out in trial order
	// and each one handed out finishes, so the trials run form a prefix
	// that the drain reaches in full, after a cancel too. A trial or sink
	// panic breaks the ring so that waiting workers return and Dispatch
	// can re-panic.
	workers := workpool.Clamp(cfg.Workers, hi-lo)
	shard := shardSize(hi-lo, workers)
	window := min(4*workers*shard, hi-lo)
	round := hi - lo // without a stopper, one round: the gate never holds
	if stop != nil {
		round = stop.round
		shard = shardSize(min(round, hi-lo), workers)
	}
	var (
		records = make([]TrialRecord, window)
		done    = make([]bool, window)
		cursor  = lo
		broken  bool
		mu      sync.Mutex // guards done, cursor, broken, res and stop
		freed   = sync.NewCond(&mu)
	)
	var cancel <-chan struct{}
	if cfg.Ctx != nil {
		cancel = cfg.Ctx.Done()
	}
	runTrials(pool, lo, hi, workers, shard, cancel, reg, cfg.Progress, func(w *interp.Machine, t int) {
		settled := false
		defer func() {
			if !settled {
				mu.Lock()
				broken = true
				freed.Broadcast()
				mu.Unlock()
			}
		}()
		p := plan(t)
		mu.Lock()
		for (t-cursor >= window || cursor < t-(t-lo)%round) && !broken {
			freed.Wait()
		}
		gaveUp := broken
		skip := !gaveUp && stop != nil && stop.skip(p.InjectAt)
		mu.Unlock()
		if gaveUp {
			return
		}
		if skip {
			records[t%window].Trial = -1
		} else {
			o, rep, final, err := e.trial(w, p)
			records[t%window] = makeRecord(t, p, rep, o, err, e.total, final, classOf)
		}
		mu.Lock()
		defer mu.Unlock()
		done[t%window] = true
		for ; cursor < hi && done[cursor%window]; cursor++ {
			done[cursor%window] = false
			if rec := &records[cursor%window]; rec.Trial >= 0 {
				res.Executed++
				res.Counts[rec.Outcome]++
				if rec.Outcome == Recovered && rec.SameInstance {
					res.SameInstance++
				}
				if stop != nil {
					stop.observe(rec)
				}
				if cfg.Stats != nil {
					cfg.Stats.ObserveTrial(*rec)
				}
				if cfg.Trace != nil {
					cfg.Trace.Emit(trialEnvelope{Type: traceTrial, TrialRecord: *rec})
				}
			}
			if stop != nil && (cursor+1-lo)%round == 0 {
				stop.rescore()
			}
		}
		freed.Broadcast()
		settled = true
	})
	if stop != nil {
		res.Skipped, res.Mispredicted = stop.skipped, stop.mispred
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		reg.Add("sfi.outcome."+o.String(), int64(res.Counts[o]))
	}
	reg.Add("sfi.trials", int64(res.Executed))
	if stop != nil {
		reg.Add("sfi.skipped", int64(res.Skipped))
	}
	reg.Add("sfi.recovered.same_instance", int64(res.SameInstance))
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return res, cfg.Ctx.Err()
	}
	return res, nil
}

// The trial budget: every trial machine runs under
// min(limit, hangFactor·golden + dmax + hangFloor) instructions, where
// limit is the golden run's own budget (interp's default 2³²) and dmax
// keeps every detection a campaign schedules reachable. Measured on all
// 23 workloads (DESIGN.md §16.2), campaign trials that end cleanly end
// within 2.0× golden and masked strikes within 1.7×. Visible strikes
// end cleanly as late as 3 962× golden on unepic; the budget trap
// leaves them visible. A runaway trial now stops within 64× golden plus
// 2²⁴ instructions instead of at 2³².
const (
	hangFactor = 64
	hangFloor  = 1 << 24
)

// trialBudget returns the trial budget for a golden run of total
// instructions whose detections fall at most dmax after injection,
// capped at limit without overflow.
func trialBudget(total, dmax, limit int64) int64 {
	if total >= (limit-hangFloor)/hangFactor {
		return limit
	}
	b := hangFactor*total + hangFloor
	if dmax >= limit-b {
		return limit
	}
	return b + dmax
}

// executor is the one trial path of the campaign and the masking study:
// a Golden with the trial budget for one study's largest detection
// latency and the trial counters of its registry.
type executor struct {
	*Golden
	budget int64

	// restores, replayInstrs and savedInstrs count ladder forks, the
	// deltas they replayed and the prefixes they skipped; reconverged and
	// reconvSaved count early exits at a golden rung and the suffixes they
	// skipped; hangs counts trials that ran into the trial budget.
	restores, replayInstrs, savedInstrs, reconverged, reconvSaved, hangs *obs.Counter
}

// executor returns the trial path on g for a study whose detections fall
// at most dmax after injection, counting into reg.
func (g *Golden) executor(dmax int64, reg *obs.Registry) *executor {
	return &executor{
		Golden:       g,
		budget:       trialBudget(g.total, dmax, g.limit),
		restores:     reg.Counter("sfi.restore.count"),
		replayInstrs: reg.Counter("sfi.restore.replay_instrs"),
		savedInstrs:  reg.Counter("sfi.restore.saved_instrs"),
		reconverged:  reg.Counter("sfi.reconverge.count"),
		reconvSaved:  reg.Counter("sfi.reconverge.saved_instrs"),
		hangs:        reg.Counter("sfi.hang.count"),
	}
}

// trial runs plan on w under the trial budget: a fork from the deepest
// rung strictly before the injection point, or a replay from Reset when
// there is none (every trial at zero checkpoints, the ladder-free
// reference path), armed to end early at a golden rung either way. final
// is the run's dynamic count, projected to the end after an early exit.
func (e *executor) trial(w *interp.Machine, plan interp.FaultPlan) (o Outcome, rep interp.FaultReport, final int64, runErr error) {
	w.Cfg.MaxInstrs = e.budget
	if snap := e.ladder.Best(plan.InjectAt); snap != nil && w.Restore(snap) == nil {
		// The restored state is snapshot-exact (instance sequencing,
		// region buffers, counters), so the record is byte-identical to
		// the replay path's.
		w.InjectFault(plan)
		w.ArmReconverge(e.ladder)
		_, runErr = w.Resume()
		e.restores.Add(1)
		e.replayInstrs.Add(plan.InjectAt - snap.Count())
		e.savedInstrs.Add(snap.Count())
	} else {
		w.Reset()
		w.InjectFault(plan)
		w.ArmReconverge(e.ladder)
		_, runErr = w.Run()
	}
	rep = w.FaultReport()
	// A trial that rejoined the golden run at a rung ends with the golden
	// outputs by construction.
	final, reconv := w.Reconverged()
	if reconv {
		e.reconverged.Add(1)
		e.reconvSaved.Add(final - w.Count)
	} else {
		final = w.Count
	}
	if errors.Is(runErr, interp.ErrBudget) {
		e.hangs.Add(1)
	}
	match := runErr == nil && (reconv || w.Checksum(e.outs...) == e.sum)
	return classify(rep, runErr, match), rep, final, runErr
}

// machinePool hands out ready-to-run machines for one campaign. All
// machines share a single pre-decoded Program (decoding is per-module,
// not per-machine work) and are recycled through a mutex-guarded LIFO
// free list, so a worker picking up where the golden run left off
// inherits its memory image, frame slots, and checkpoint buffers instead
// of reallocating them, and which machine serves which request is fixed
// by the order of get and put calls. release hands every machine the pool
// built back to the interpreter's memory-image pool when the campaign
// returns, instead of leaving the images to the garbage collector.
type machinePool struct {
	// prog is the shared pre-decoded Program; the pool's Golden keeps it
	// for later pools and the adaptive region-map run.
	prog *interp.Program

	mod    *ir.Module
	metas  []interp.RegionMeta
	engine interp.Engine

	mu   sync.Mutex
	free []*interp.Machine // idle machines, most recently put last
	all  []*interp.Machine // every machine built, for release
}

func newMachinePool(mod *ir.Module, metas []interp.RegionMeta, engine interp.Engine) *machinePool {
	return &machinePool{prog: interp.Predecode(mod), mod: mod, metas: metas, engine: engine}
}

// get returns the most recently put idle machine, or builds a new one.
func (p *machinePool) get() *interp.Machine {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	w := interp.New(p.mod, interp.Config{Engine: p.engine})
	w.UseProgram(p.prog)
	if p.metas != nil {
		w.SetRuntime(p.metas)
	}
	p.mu.Lock()
	p.all = append(p.all, w)
	p.mu.Unlock()
	return w
}

func (p *machinePool) put(w *interp.Machine) {
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}

// release releases every machine the pool built, idle or not; the
// campaign defers it, so it runs on the error and cancel paths too, after
// every worker has returned. The pool must not be used afterwards.
func (p *machinePool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.all {
		w.Release()
	}
	p.all, p.free = nil, nil
}

// shardSize is the trials-per-shard heuristic for trials spread over
// workers: several shards per worker (smoothing uneven trial costs and
// keeping cancellation and streaming latency low) while bounding queue
// traffic, clamped to [1, 64].
func shardSize(trials, workers int) int {
	return max(1, min(64, trials/workers/8))
}

// runTrials executes fn over the trial indices [lo, hi), scheduled as
// contiguous shards of shard trials (workpool.Dispatch) on workers
// goroutines, each leasing a private machine (machines are not
// goroutine-safe); the caller normalizes both. Trial plans derive from
// (seed, t) and results are consumed in trial order, so every (workers,
// shard) shape is identical to the serial order. A single worker runs
// inline with no goroutine or channel overhead. A closed cancel channel
// (may be nil) stops scheduling at shard granularity. Each worker's
// machine reports into reg (folded at the Reset boundary between
// trials), its end-of-run throughput lands in the
// "sfi.worker.trials_per_sec" histogram, and prog (may be nil) is
// stepped once per completed trial.
func runTrials(pool *machinePool, lo, hi, workers, shard int, cancel <-chan struct{}, reg *obs.Registry, prog *obs.Progress, fn func(w *interp.Machine, t int)) {
	rate := reg.Histogram("sfi.worker.trials_per_sec")
	workpool.Dispatch(hi-lo, shard, workers, cancel, func(_ int, pull func() (workpool.Shard, bool)) {
		w := pool.get()
		w.AttachObs(reg)
		start := time.Now()
		n := 0
		for sh, ok := pull(); ok; sh, ok = pull() {
			for t := sh.Lo; t < sh.Hi; t++ {
				fn(w, lo+t)
				prog.Step(1)
				n++
			}
		}
		if el := time.Since(start).Seconds(); el > 0 && n > 0 {
			rate.Observe(int64(float64(n) / el))
		}
		w.AttachObs(nil)
		pool.put(w)
	})
}
