// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (§5) through the experiments harness. Each bench
// reports the headline number of its exhibit as a custom metric alongside
// wall-clock cost, and the -v output carries the full table. Run:
//
//	go test -bench=. -benchmem
//
// Individual exhibits: -bench=BenchmarkFig8FaultCoverage etc.
package repro_test

import (
	"fmt"
	"io"
	"os"
	"testing"

	"encore/internal/core"
	"encore/internal/experiments"
	"encore/internal/interp"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

func harness() *experiments.Harness {
	return &experiments.Harness{Quick: testing.Short()}
}

func render(b *testing.B, r interface{ Render(io.Writer) }) {
	b.Helper()
	if testing.Verbose() {
		r.Render(os.Stdout)
	}
}

// BenchmarkFig1TraceIdempotence regenerates Figure 1: the fraction of
// dynamic traces that are inherently idempotent per window length.
func BenchmarkFig1TraceIdempotence(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			mean10, mean1000 := 0.0, 0.0
			for _, row := range r.Rows {
				mean10 += row.Fractions[10]
				mean1000 += row.Fractions[1000]
			}
			n := float64(len(r.Rows))
			b.ReportMetric(100*mean10/n, "idem10_%")
			b.ReportMetric(100*mean1000/n, "idem1000_%")
			render(b, r)
		}
	}
}

// BenchmarkTable1Baselines regenerates Table 1: enterprise vs
// architectural vs Encore recovery attributes, measured in-simulator.
func BenchmarkTable1Baselines(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Table1("175.vpr")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Rows[0].StorageBytes), "enterpriseB")
			b.ReportMetric(float64(r.Rows[1].StorageBytes), "archB")
			b.ReportMetric(float64(r.Rows[2].StorageBytes), "encoreB")
			render(b, r)
		}
	}
}

// BenchmarkFig5RegionIdempotence regenerates Figure 5: inherent region
// idempotence as a function of Pmin ∈ {∅, 0.0, 0.1, 0.25}.
func BenchmarkFig5RegionIdempotence(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*r.MeanIdempotent(0), "idemNoPrune_%")
			b.ReportMetric(100*r.MeanIdempotent(1), "idemPmin0_%")
			render(b, r)
		}
	}
}

// BenchmarkFig6DynamicBreakdown regenerates Figure 6: execution time in
// idempotent, checkpointed, and unprotected regions.
func BenchmarkFig6DynamicBreakdown(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			idem, ckpt := 0.0, 0.0
			for _, row := range r.Rows {
				idem += row.B.Idempotent
				ckpt += row.B.Ckpt
			}
			n := float64(len(r.Rows))
			b.ReportMetric(100*idem/n, "idem_%")
			b.ReportMetric(100*ckpt/n, "ckpt_%")
			render(b, r)
		}
	}
}

// BenchmarkFig7aRuntimeOverhead regenerates Figure 7a: dynamic-instruction
// overhead under static vs optimistic alias analysis.
func BenchmarkFig7aRuntimeOverhead(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig7a()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*r.MeanStatic(), "static_%")
			opt := 0.0
			for _, row := range r.Rows {
				opt += row.Optimistic
			}
			b.ReportMetric(100*opt/float64(len(r.Rows)), "optimistic_%")
			render(b, r)
		}
	}
}

// BenchmarkFig7bStorageOverhead regenerates Figure 7b: checkpoint storage
// bytes per region, split into memory and register contributions.
func BenchmarkFig7bStorageOverhead(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig7b()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			mem, reg := 0.0, 0.0
			for _, row := range r.Rows {
				mem += row.MemBytes
				reg += row.RegBytes
			}
			n := float64(len(r.Rows))
			b.ReportMetric(mem/n, "memB/region")
			b.ReportMetric(reg/n, "regB/region")
			render(b, r)
		}
	}
}

// BenchmarkFig8FaultCoverage regenerates Figure 8: full-system fault
// coverage (masking Monte Carlo + α-scaled recoverability) at detection
// latencies 1000, 100, and 10 instructions.
func BenchmarkFig8FaultCoverage(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*r.MeanTotal(0), "covD1000_%")
			b.ReportMetric(100*r.MeanTotal(1), "covD100_%")
			b.ReportMetric(100*r.MeanTotal(2), "covD10_%")
			render(b, r)
		}
	}
}

// BenchmarkAblationEta sweeps the Equation-5 merge threshold.
func BenchmarkAblationEta(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationEta(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Rows[0].MeanRegions, "regions@eta0")
			b.ReportMetric(r.Rows[len(r.Rows)-1].MeanRegions, "regions@etaMax")
			render(b, r)
		}
	}
}

// BenchmarkAblationBudget sweeps the overhead budget — the paper's
// reliability-vs-performance dial (§3.4.2).
func BenchmarkAblationBudget(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationBudget(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := r.Rows[len(r.Rows)-1]
			b.ReportMetric(100*last.MeanRecov, "recov@maxBudget_%")
			render(b, r)
		}
	}
}

// BenchmarkAblationSignature compares Encore against software
// path-signature tracking, the §2.1 alternative.
func BenchmarkAblationSignature(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationSignature()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			enc, sig := 0.0, 0.0
			for _, row := range r.Rows {
				enc += row.EncoreOverhead
				sig += row.SignatureOverhead
			}
			n := float64(len(r.Rows))
			b.ReportMetric(100*enc/n, "encore_%")
			b.ReportMetric(100*sig/n, "signature_%")
			render(b, r)
		}
	}
}

// BenchmarkAblationInputShift measures train-vs-ref survival: the
// statistical-idempotence risk study behind §3.4.1's "no measurable
// risk" claim.
func BenchmarkAblationInputShift(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		r, err := h.AblationInputShift(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			train, ref := 0.0, 0.0
			for _, row := range r.Rows {
				train += row.TrainRecovered
				ref += row.RefRecovered
			}
			n := float64(len(r.Rows))
			b.ReportMetric(100*train/n, "train_%")
			b.ReportMetric(100*ref/n, "ref_%")
			render(b, r)
		}
	}
}

// BenchmarkEndToEndSFI measures the cost of the real injected-fault
// campaign (the validation companion to Figure 8's analytical numbers) on
// one representative benchmark per suite.
func BenchmarkEndToEndSFI(b *testing.B) {
	for _, name := range []string{"175.vpr", "172.mgrid", "rawcaudio"} {
		b.Run(name, func(b *testing.B) {
			sp, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			art := sp.Build()
			res, err := core.Compile(art.Mod, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			trials := 100
			if testing.Short() {
				trials = 25
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
					Trials: trials, Seed: uint64(i + 1), Dmax: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*camp.RecoveredRate(), "recovered_%")
				}
			}
		})
	}
}

// BenchmarkCompilePipeline measures the Encore compiler itself (profiling,
// analysis, region formation, selection, instrumentation) per benchmark
// suite representative.
func BenchmarkCompilePipeline(b *testing.B) {
	for _, name := range []string{"164.gzip", "183.equake", "mpeg2enc"} {
		b.Run(name, func(b *testing.B) {
			sp, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				art := sp.Build()
				if _, err := core.Compile(art.Mod, core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpreter measures raw simulator throughput, the substrate
// cost every experiment pays.
func BenchmarkInterpreter(b *testing.B) {
	sp, err := workload.ByName("256.bzip2")
	if err != nil {
		b.Fatal(err)
	}
	art := sp.Build()
	m := interp.New(art.Mod, interp.Config{})
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += m.Count
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpDispatch compares the default closure-compiled engine
// against the per-instruction reference loop on the same workload, plain
// and with profiling enabled. The default engine's one-time compilation
// into threaded-code closures happens on the first run and is shared by
// every later one. Profiling is where the engines diverge most: the
// default engine bumps dense []int64 counters at block retire while the
// reference loop updates map[*ir.Block] entries per block.
func BenchmarkInterpDispatch(b *testing.B) {
	sp, err := workload.ByName("256.bzip2")
	if err != nil {
		b.Fatal(err)
	}
	art := sp.Build()
	for _, mode := range []struct {
		name string
		cfg  interp.Config
	}{
		{"fast", interp.Config{}},
		{"reference", interp.Config{Engine: interp.EngineRef}},
		{"fast-profiled", interp.Config{Profile: true}},
		{"reference-profiled", interp.Config{Profile: true, Engine: interp.EngineRef}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := interp.New(art.Mod, mode.cfg)
			var instrs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				instrs += m.Count
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkSFITrialThroughput measures fault-injection throughput in
// trials per second — each trial is a golden-checked full run with one
// injected fault — for each execution engine, with the checkpoint
// ladder off (ckpt0: every trial replays the whole golden prefix) and
// at the default ladder (ckpt16: trials fork from the deepest snapshot
// below their injection point). Campaign results are invariant across
// all of these, so the spread between sub-benchmarks is pure simulator
// speed: this is the quantity Figure 8's Monte Carlo and the end-to-end
// SFI campaigns pay for.
func BenchmarkSFITrialThroughput(b *testing.B) {
	sp, err := workload.ByName("175.vpr")
	if err != nil {
		b.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const trials = 50
	for _, engine := range []interp.Engine{interp.EngineFast, interp.EngineRef} {
		for _, ckpt := range []int{0, 16} {
			b.Run(fmt.Sprintf("%s/ckpt%d", engine, ckpt), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
						Trials: trials, Seed: uint64(i + 1), Dmax: 100, Engine: engine,
						Checkpoints: ckpt,
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
			})
		}
	}
}

// BenchmarkSFITrialThroughputStats measures the cost of attaching the
// online per-region estimator (internal/stats) to a campaign. The two
// sub-benchmarks run the identical campaign with and without a StatsSink;
// the trials/s spread between them is the telemetry overhead, which the
// PR 8 budget holds under 2% (see EXPERIMENTS.md).
func BenchmarkSFITrialThroughputStats(b *testing.B) {
	sp, err := workload.ByName("175.vpr")
	if err != nil {
		b.Fatal(err)
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var regions []sfi.RegionInfo
	for _, rc := range res.RegionCoverages(100) {
		regions = append(regions, sfi.RegionInfo{
			ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
			Selected: rc.Selected, DynFrac: rc.DynFrac,
			InstanceLen: rc.InstanceLen, Alpha: rc.Alpha,
		})
	}
	const trials = 50
	for _, withStats := range []bool{false, true} {
		name := "nostats"
		if withStats {
			name = "stats"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sfi.CampaignConfig{
					Trials: trials, Seed: uint64(i + 1), Dmax: 100,
					Regions: regions,
				}
				if withStats {
					cfg.Stats = stats.New()
				}
				if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkResetDirtyRange measures Machine.Reset on a deliberately
// oversized memory image. The dirty-range watermark makes reset cost
// proportional to the words the previous run actually touched, not to
// MemWords; the words/reset metric reports that footprint.
func BenchmarkResetDirtyRange(b *testing.B) {
	sp, err := workload.ByName("rawcaudio")
	if err != nil {
		b.Fatal(err)
	}
	art := sp.Build()
	m := interp.New(art.Mod, interp.Config{MemWords: 1 << 24})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var words int64
	for i := 0; i < b.N; i++ {
		m.Reset()
		words += m.LastResetWords()
	}
	b.ReportMetric(float64(words)/float64(b.N), "words/reset")
}

// BenchmarkSnapshotRestore measures Machine.Restore from a mid-run
// snapshot on a deliberately oversized memory image. Like Reset, the
// cost is proportional to the dirty delta — the words the previous
// trial touched plus the snapshot's recorded footprint — not to
// MemWords; the words/restore metric reports that delta.
func BenchmarkSnapshotRestore(b *testing.B) {
	sp, err := workload.ByName("rawcaudio")
	if err != nil {
		b.Fatal(err)
	}
	art := sp.Build()
	capm := interp.New(art.Mod, interp.Config{MemWords: 1 << 24})
	if _, err := capm.Run(); err != nil {
		b.Fatal(err)
	}
	_, lad, err := capm.RunWithSnapshots([]int64{capm.Count / 2})
	if err != nil {
		b.Fatal(err)
	}
	snap := lad.Snapshots()[0]
	m := interp.New(art.Mod, interp.Config{MemWords: 1 << 24})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var words int64
	for i := 0; i < b.N; i++ {
		if err := m.Restore(snap); err != nil {
			b.Fatal(err)
		}
		words += m.LastRestoreWords()
	}
	b.ReportMetric(float64(words)/float64(b.N), "words/restore")
}
