// Command encore-sfi runs end-to-end statistical fault injection against
// Encore-instrumented benchmarks: each trial corrupts one instruction
// output, a symptom detector fires after a random latency, and the
// instrumented program's own recovery blocks roll execution back. Outcomes
// are classified against a golden run.
//
// Usage:
//
//	encore-sfi [-app name] [-trials n] [-dmax d] [-seed s] [-masking]
//	           [-workers n] [-engine fast|ref] [-checkpoints k]
//	           [-progress]
//	           [-shard i/K] [-adaptive] [-adaptive-ci w] [-adaptive-round n]
//	           [-reuse trace.jsonl]
//	           [-metrics file|-] [-prom file|-] [-stats file|-]
//	           [-trace file|-] [-chrometrace file|-]
//	encore-sfi -report file|- [-json]
//	encore-sfi -merge [-trace file|-] [-stats file|-] shard1.jsonl shard2.jsonl …
//
// -checkpoints k makes the golden run capture a ladder of evenly spaced
// machine snapshots as it goes (interp.RunLadder): k is a target, and a
// run longer than k·interp.LadderFloor instructions ends with k to 2k−1
// rungs. Each trial then restores the deepest snapshot strictly before
// its injection point and replays only the short delta, instead of
// re-executing the whole golden prefix from instruction zero. Once a
// trial's fault settles, the same ladder ends the trial at the first
// later rung whose snapshot its state matches (interp.ArmReconverge).
// Outcomes, ledgers, and stats are byte-identical at any k (0 disables
// forking and early exit); the knob only moves trial throughput. It sets
// the campaign's ladder only: the -masking study always targets
// sfi.DefaultCheckpoints rungs.
//
// -progress emits a rate-limited trial counter to stderr while a campaign
// runs; each line carries the worst-region confidence interval — the
// widest Wilson-score half-width on any selected region's recovery rate
// — so convergence is visible live, plus how many trials forked from the
// ladder and how many ended early at a golden rung, with the
// instructions each saved. -metrics writes the observability
// snapshot (compile spans, SFI outcome counters, worker throughput; see
// DESIGN.md §9) as JSON to the given file, or to stdout for "-"; -prom
// writes the same snapshot in Prometheus text exposition format.
//
// -stats writes the final online-estimator snapshot per campaign (one
// JSON array element per app; see internal/stats and DESIGN.md §14):
// per-region recovery rates with Wilson confidence intervals, streaming
// latency/rollback moments, and the measured-vs-predicted coverage join.
// The output is byte-identical across -workers and -engine choices.
//
// -trace streams the per-trial ledger (see DESIGN.md §10) as JSONL to the
// given file: one campaign header line per app followed by one line per
// trial, byte-identical across runs with the same -seed. With "-" the
// ledger goes to stdout and the human outcome table moves to stderr so
// the stream stays machine-clean.
//
// -shard i/K executes only shard i of a K-way deterministic partition of
// the trial space (sfi.ShardRange.Bounds): each trial's plan is a pure
// function of (seed, trial), so the shard's ledger lines are
// byte-identical to the corresponding lines of a single-process run, and
// K shard ledgers merge back (-merge) into exactly the single-process
// ledger. It requires -app: -merge takes one campaign per shard ledger.
//
// -adaptive enables variance-aware early stopping (sfi.Stopper): trials
// aimed at regions whose recovery-rate Wilson interval has converged
// below the target half-width (-adaptive-ci, default 0.05) are skipped,
// convergence being rescored at deterministic round boundaries
// (-adaptive-round, 0 = heuristic).
// -reuse seeds the stopper with a prior campaign's per-region tallies
// keyed by region content hash, so a re-run over an edited module
// re-injects only regions whose code changed.
//
// -report switches to attribution mode: instead of injecting, it ingests
// a trace file ("-" = stdin) and prints per-region measured-vs-predicted
// coverage tables (or a JSON report with -json).
//
// -merge switches to merge mode: the positional arguments name per-shard
// JSONL ledgers (from -shard runs of the same campaign), merged in trial
// order to the -trace destination (default stdout) byte-identically to
// the single-process ledger; -stats additionally replays the merged
// records through the online estimator as they are written and writes
// the snapshot, again byte-identical to a single-process -stats run.
//
// -chrometrace records span timings and writes a chrome://tracing JSON
// array to the given file on exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

func main() {
	if err := runSFI(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "encore-sfi:", err)
		os.Exit(1)
	}
}

// runSFI is the whole command behind a testable seam: flags come from
// argv; tables, traces, and reports go to stdout, diagnostics and the
// progress meter to stderr.
func runSFI(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("encore-sfi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app         = fs.String("app", "", "benchmark (empty = all)")
		trials      = fs.Int("trials", 300, "injections per benchmark")
		dmax        = fs.Int64("dmax", 100, "maximum detection latency (instructions)")
		seed        = fs.Uint64("seed", 1, "PRNG seed")
		masking     = fs.Bool("masking", false, "also run the raw-strike masking study")
		workers     = fs.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS; clamped to the trial count)")
		checkpoints = fs.Int("checkpoints", sfi.DefaultCheckpoints, fmt.Sprintf("golden-run ladder target k for fork-from-checkpoint campaign trials: k to 2k-1 rungs on a long run (0 = replay the full prefix; -masking always uses %d)", sfi.DefaultCheckpoints))
		engine      = fs.String("engine", "", "trial execution engine: fast or ref (outcomes are engine-invariant)")
		progress    = fs.Bool("progress", false, "report per-campaign trial progress on stderr")
		metrics     = fs.String("metrics", "", "write the observability snapshot as JSON to this file (- = stdout)")
		prom        = fs.String("prom", "", "write the observability snapshot in Prometheus text format to this file (- = stdout)")
		statsPath   = fs.String("stats", "", "write per-campaign online estimator snapshots as JSON to this file (- = stdout)")
		tracePath   = fs.String("trace", "", "stream the per-trial JSONL ledger to this file (- = stdout)")
		reportPath  = fs.String("report", "", "attribution mode: read a trace from this file (- = stdin) and report")
		jsonOut     = fs.Bool("json", false, "with -report, emit the attribution report as JSON")
		shardSpec   = fs.String("shard", "", "run only shard i/K of the deterministic trial partition (e.g. 2/3; needs -app, since -merge takes one campaign per shard)")
		mergeMode   = fs.Bool("merge", false, "merge mode: merge per-shard ledgers (positional args) to -trace, optional -stats replay")
		adaptive    = fs.Bool("adaptive", false, "enable variance-aware adaptive stopping (skip trials on converged regions)")
		adaptiveCI  = fs.Float64("adaptive-ci", 0, "adaptive stopping Wilson half-width target (0 = default; implies -adaptive)")
		adaptiveRnd = fs.Int("adaptive-round", 0, "adaptive stopping round size in trials (0 = heuristic; implies -adaptive)")
		reusePath   = fs.String("reuse", "", "with -adaptive, seed stopping tallies from this prior trace ledger (content-hash keyed)")
		chrometrace = fs.String("chrometrace", "", "write a chrome://tracing span timeline to this file (- = stdout)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: a campaign needs at least one trial", *trials)
	}
	if *dmax < 0 {
		return fmt.Errorf("-dmax %d is negative: detection latency is sampled uniformly from [0, dmax]", *dmax)
	}
	if *checkpoints < 0 {
		return fmt.Errorf("-checkpoints %d is negative (0 disables the snapshot ladder)", *checkpoints)
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		return err
	}

	if *reportPath != "" {
		if *mergeMode {
			return fmt.Errorf("-merge and -report are mutually exclusive modes")
		}
		return runReport(*reportPath, *jsonOut, stdout)
	}
	if *mergeMode {
		return runMerge(fs.Args(), *tracePath, *statsPath, stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (positional ledger files are only read in -merge mode)", fs.Args())
	}

	shardIdx, shardCnt, err := sfi.ParseShard(*shardSpec)
	if err != nil {
		return err
	}
	if shardCnt > 0 && *app == "" {
		return fmt.Errorf("-shard needs -app: a shard ledger must hold one campaign, since -merge takes one campaign per shard")
	}
	if *adaptiveCI < 0 {
		return fmt.Errorf("-adaptive-ci %g is negative: the target is a Wilson half-width", *adaptiveCI)
	}
	if *adaptiveRnd < 0 {
		return fmt.Errorf("-adaptive-round %d is negative", *adaptiveRnd)
	}
	var stop *sfi.Stopper
	if *adaptive || *adaptiveCI > 0 || *adaptiveRnd > 0 {
		stop = &sfi.Stopper{TargetCI: *adaptiveCI, Round: *adaptiveRnd}
	}
	if shardCnt > 0 && stop != nil {
		return fmt.Errorf("-shard and -adaptive cannot be combined: adaptive stopping decides from the global record stream")
	}
	if *reusePath != "" && stop == nil {
		return fmt.Errorf("-reuse requires -adaptive: prior tallies only seed the adaptive stopper")
	}
	// Prior campaign tallies for compositional reuse, keyed by app so one
	// multi-campaign ledger can seed a multi-app run.
	priors := map[string][]sfi.PriorRegion{}
	if *reusePath != "" {
		f, err := os.Open(*reusePath)
		if err != nil {
			return fmt.Errorf("reuse: %w", err)
		}
		var ests []*stats.Estimator
		err = sfi.ReplayLedger(f, func() sfi.StatsSink {
			e := stats.New()
			ests = append(ests, e)
			return e
		})
		f.Close()
		if err != nil {
			return fmt.Errorf("reuse: %w", err)
		}
		for _, e := range ests {
			priors[e.Snapshot().App] = e.Priors()
		}
	}

	reg := obs.Default()
	if *chrometrace != "" {
		reg.CaptureSpans(true)
	}
	// newProgress returns nil unless -progress is set; a nil *Progress
	// no-ops, so the campaign code takes it unconditionally.
	newProgress := func(label string, total int) *obs.Progress {
		if !*progress {
			return nil
		}
		return obs.NewProgress(stderr, label, total, obs.DefaultProgressInterval)
	}

	specs := workload.All()
	if *app != "" {
		sp, err := workload.ByName(*app)
		if err != nil {
			return err
		}
		specs = []workload.Spec{sp}
	}

	// The human-readable outcome table normally goes to stdout; when the
	// JSONL ledger claims stdout (-trace -) or the stats snapshots do
	// (-stats -), the table moves to stderr so the machine stream stays
	// clean and byte-deterministic. Both claiming stdout at once would
	// interleave two formats, so that combination is rejected.
	if *tracePath == "-" && *statsPath == "-" {
		return fmt.Errorf("-trace - and -stats - both claim stdout; write at least one to a file")
	}
	var sink *obs.EventSink
	tableOut := stdout
	if *statsPath == "-" {
		tableOut = stderr
	}
	if *tracePath != "" {
		if *tracePath == "-" {
			sink = obs.NewJSONLSink(stdout)
			tableOut = stderr
		} else {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			defer f.Close()
			sink = obs.NewJSONLSink(f)
		}
	}

	var shard *sfi.ShardRange
	if shardCnt > 0 {
		shard = &sfi.ShardRange{Index: shardIdx, Count: shardCnt}
	}

	tw := tabwriter.NewWriter(tableOut, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\trecovered\tbenign\tunrec\trec-wrong\tsdc\tcrash\tsame-inst\tmasked")
	var snaps []*stats.Snapshot
	var adaptiveNotes []string
	ccfg := core.DefaultConfig()
	ccfg.Interp.Engine = eng
	for _, sp := range specs {
		sp := sp
		art := sp.Build()
		// A campaign reads no measured field of the compile result, so
		// the instrumented module skips Finalize's measurement run.
		an, err := core.Analyze(art.Mod, ccfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		res, err := an.Instrument(ccfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		progTotal := *trials
		if shard != nil {
			lo, hi := shard.Bounds(*trials)
			progTotal = hi - lo
		}
		prog := newProgress(sp.Name+" campaign", progTotal)
		// The online estimator powers both the -stats snapshot and the
		// progress line's convergence note; it is only attached when one
		// of them wants it, so plain runs skip the per-trial bookkeeping.
		var est *stats.Estimator
		if *statsPath != "" || *progress {
			est = stats.New()
		}
		if prog != nil {
			// The note pairs the estimator's convergence signal with this
			// campaign's fork-from-checkpoint and early-exit savings. The
			// registry's sfi.restore.* and sfi.reconverge.* counters are
			// cumulative across campaigns, hence the per-campaign
			// baselines.
			restores := reg.Counter("sfi.restore.count")
			saved := reg.Counter("sfi.restore.saved_instrs")
			reconv := reg.Counter("sfi.reconverge.count")
			reconvSaved := reg.Counter("sfi.reconverge.saved_instrs")
			baseRestores, baseSaved := restores.Value(), saved.Value()
			baseReconv, baseReconvSaved := reconv.Value(), reconvSaved.Value()
			prog.SetNote(func() string {
				var parts []string
				if est != nil {
					if id, half := est.WorstCI(); id >= 0 {
						parts = append(parts, fmt.Sprintf("worst-ci r%d ±%.3f", id, half))
					}
				}
				if n := restores.Value() - baseRestores; n > 0 {
					parts = append(parts, fmt.Sprintf("forked %d (saved %dM instr)",
						n, (saved.Value()-baseSaved)/1e6))
				}
				if n := reconv.Value() - baseReconv; n > 0 {
					parts = append(parts, fmt.Sprintf("reconverged %d (saved %dM instr)",
						n, (reconvSaved.Value()-baseReconvSaved)/1e6))
				}
				return strings.Join(parts, ", ")
			})
		}
		campCfg := sfi.CampaignConfig{
			Trials: *trials, Seed: *seed, Dmax: *dmax, Workers: *workers,
			Engine: eng, Obs: reg, Progress: prog, Checkpoints: *checkpoints,
			App: sp.Name, Regions: serve.RegionTable(res, *dmax), Trace: sink,
			Shard: shard, Stop: stop, Prior: priors[sp.Name],
		}
		if est != nil {
			campCfg.Stats = est
		}
		camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, campCfg)
		prog.Finish()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		if stop != nil {
			adaptiveNotes = append(adaptiveNotes, fmt.Sprintf(
				"adaptive %s: executed %d/%d trials, skipped %d, mispredicted %d",
				sp.Name, camp.Executed, *trials, camp.Skipped, camp.Mispredicted))
		}
		if est != nil && *statsPath != "" {
			snaps = append(snaps, est.Snapshot())
		}
		maskStr := "-"
		if *masking {
			mprog := newProgress(sp.Name+" masking", *trials)
			mres, err := sfi.MeasureMasking(func() (*ir.Module, []*ir.Global) {
				a := sp.Build()
				return a.Mod, a.Outputs
			}, sfi.MaskingConfig{
				Trials: *trials, Seed: *seed, Workers: *workers,
				Engine: eng, Obs: reg, Progress: mprog,
			})
			mprog.Finish()
			if err != nil {
				return fmt.Errorf("%s: %w", sp.Name, err)
			}
			maskStr = fmt.Sprintf("%.1f%%", mres.MaskedRate*100)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n", sp.Name,
			camp.Counts[sfi.Recovered], camp.Counts[sfi.Benign],
			camp.Counts[sfi.DetectedUnrecoverable], camp.Counts[sfi.RecoveredWrong],
			camp.Counts[sfi.SilentCorruption], camp.Counts[sfi.Crashed],
			camp.SameInstance, maskStr)
	}
	tw.Flush()
	for _, note := range adaptiveNotes {
		fmt.Fprintln(tableOut, note)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if *statsPath != "" {
		if err := stats.WriteSnapshotsFile(*statsPath, snaps, stdout); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
	}
	if err := obs.WriteMetricsTo(*metrics, reg, tableOut); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := obs.WritePrometheusFileTo(*prom, reg, tableOut); err != nil {
		return fmt.Errorf("prom: %w", err)
	}
	if err := obs.WriteChromeTraceFileTo(*chrometrace, reg, tableOut); err != nil {
		return fmt.Errorf("chrometrace: %w", err)
	}
	return nil
}

// runMerge merges per-shard JSONL ledgers (in any argument order) into
// one campaign ledger on the -trace destination, and with -stats
// replays the merged stream through the online estimator as it is
// written, so the snapshot is byte-identical to a single-process -stats
// run and neither step holds the ledger.
func runMerge(files []string, tracePath, statsPath string, stdout io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("merge: no shard ledgers given (pass them as positional arguments)")
	}
	if (tracePath == "" || tracePath == "-") && statsPath == "-" {
		return fmt.Errorf("merge: the merged ledger and -stats - both claim stdout; write at least one to a file")
	}
	readers := make([]io.Reader, 0, len(files))
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		defer f.Close()
		readers = append(readers, f)
	}
	out := stdout
	if tracePath != "" && tracePath != "-" {
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		defer f.Close()
		out = f
	}
	if statsPath == "" {
		return sfi.MergeLedgers(out, readers...)
	}
	pr, pw := io.Pipe()
	merged := make(chan error, 1)
	go func() {
		err := sfi.MergeLedgers(io.MultiWriter(out, pw), readers...)
		pw.CloseWithError(err)
		merged <- err
	}()
	snaps, err := stats.ReadLedger(pr)
	// A replay error fails the merge's next write with that same error,
	// so the merge stops too; a merge error reaches the replay wrapped.
	pr.CloseWithError(err)
	if merr := <-merged; merr != nil && !errors.Is(merr, err) {
		return merr
	}
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if err := stats.WriteSnapshotsFile(statsPath, snaps, stdout); err != nil {
		return fmt.Errorf("merge: stats: %w", err)
	}
	return nil
}
