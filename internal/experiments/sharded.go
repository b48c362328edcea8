package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// ShardedRow is one benchmark's measurement of the campaign-scaling
// machinery: deterministic trial-space sharding (merged back and
// asserted byte-identical to the single-process ledger) and adaptive
// stopping at the single-process run's own worst-region confidence, so
// the trials-saved column compares equal statistical quality.
type ShardedRow struct {
	App string
	// SingleTrialsPerSec is single-process exhaustive campaign throughput.
	SingleTrialsPerSec float64
	// ShardOverhead is (sum of per-shard walls) / single wall: the cost of
	// running the same trial space as K shard processes back to back. Each
	// shard re-derives the full fault plan, so this hovers just above 1.
	ShardOverhead float64
	// WorstCI is the adaptive run's achieved widest Wilson half-width
	// among regions that were actually struck. Unstruck regions are
	// excluded: they report the constant 0.5 of total uncertainty no
	// matter how many trials run, so they cannot anchor an
	// equal-confidence comparison.
	WorstCI float64
	// ExhaustivePrefix is the shortest exhaustive-run prefix whose worst
	// struck-region half-width is at least as tight as WorstCI — what a
	// user watching the live worst-CI signal and stopping by hand would
	// spend for the same worst-case confidence. PrefixSaved is that
	// prefix over AdaptiveExecuted: the part of the win attributable to
	// per-region skipping alone, which is modest when regions converge at
	// similar rates.
	ExhaustivePrefix int
	PrefixSaved      float64
	// AdaptiveExecuted counts trials the adaptive run actually injected.
	AdaptiveExecuted int
	// TrialsSaved is Trials / AdaptiveExecuted: the planned fixed budget
	// over what adaptive stopping actually spent to deliver WorstCI —
	// the headline savings for a user who would otherwise run the whole
	// campaign.
	TrialsSaved float64
}

// ShardedResult is the sharding/adaptive-stopping dataset.
type ShardedResult struct {
	Trials int
	Shards int
	Rows   []ShardedRow
}

// shardedApps are the default representative workloads: one from each
// suite so region counts and recovery-rate spreads differ.
var shardedApps = []string{"g721encode", "175.vpr", "rawdaudio"}

// Sharded measures the million-trial-campaign machinery on representative
// workloads (or just app, when given). For each workload it
//
//  1. runs the exhaustive single-process campaign, recording throughput,
//     the ledger bytes, and the worst-region Wilson half-width;
//  2. runs the same campaign as 3 deterministic shards, merges the shard
//     ledgers, and asserts the merge is byte-identical to step 1's ledger
//     (a failed identity is an error, not a table entry);
//  3. re-runs with adaptive stopping at the default Wilson-CI target and
//     reports two savings ratios at the same achieved worst struck-region
//     half-width: the planned budget over adaptive executed (the headline
//     number — what a fixed-budget campaign wastes past convergence), and
//     the shortest equally-converged exhaustive prefix over adaptive
//     executed (the stricter baseline of a user watching the live
//     worst-CI signal and stopping by hand).
func (h *Harness) Sharded(app string) (*ShardedResult, error) {
	apps := shardedApps
	if app != "" {
		apps = []string{app}
	}
	const shards = 3
	trials := h.trials(1000)
	out := &ShardedResult{Trials: trials, Shards: shards}
	for _, name := range apps {
		sp, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		res, art, err := h.compile(sp, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		regions := serve.RegionTable(res, 100)
		base := sfi.CampaignConfig{
			Trials: trials, Seed: 11, Dmax: 100, Engine: h.Engine,
			Checkpoints: sfi.DefaultCheckpoints, App: name, Regions: regions,
		}

		// 1. Exhaustive single-process baseline.
		var singleBuf bytes.Buffer
		est := stats.New()
		cfg := base
		cfg.Trace = obs.NewJSONLSink(&singleBuf)
		cfg.Stats = est
		start := time.Now()
		if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		singleWall := time.Since(start)

		// 2. K shards, merged, asserted byte-identical.
		shardBufs := make([]bytes.Buffer, shards)
		var shardWall time.Duration
		for i := range shardBufs {
			scfg := base
			scfg.Shard = &sfi.ShardRange{Index: i + 1, Count: shards}
			scfg.Trace = obs.NewJSONLSink(&shardBufs[i])
			start = time.Now()
			if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, scfg); err != nil {
				return nil, fmt.Errorf("%s shard %d/%d: %w", name, i+1, shards, err)
			}
			shardWall += time.Since(start)
		}
		readers := make([]io.Reader, shards)
		for i := range shardBufs {
			readers[i] = bytes.NewReader(shardBufs[i].Bytes())
		}
		var merged bytes.Buffer
		if err := sfi.MergeLedgers(&merged, readers...); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if !bytes.Equal(merged.Bytes(), singleBuf.Bytes()) {
			return nil, fmt.Errorf("%s: merged %d-shard ledger differs from the single-process ledger", name, shards)
		}

		// 3. Adaptive stopping at the default confidence target. The fair
		// exhaustive cost for the quality the adaptive run delivered is the
		// shortest exhaustive prefix whose worst struck-region CI is at
		// least as tight — both runs then hand the user the same worst-case
		// confidence, and the ratio is pure skipped-trial savings.
		aest := stats.New()
		acfg := base
		acfg.Stop = &sfi.Stopper{}
		acfg.Stats = aest
		acamp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, acfg)
		if err != nil {
			return nil, fmt.Errorf("%s adaptive: %w", name, err)
		}
		aworst := worstStruckCI(aest.Snapshot())
		prefixTrials, err := prefixToCI(singleBuf.Bytes(), struckCount(est.Snapshot()), aworst)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		executed := acamp.Executed
		if executed == 0 {
			executed = 1
		}
		out.Rows = append(out.Rows, ShardedRow{
			App:                name,
			SingleTrialsPerSec: float64(trials) / singleWall.Seconds(),
			ShardOverhead:      shardWall.Seconds() / singleWall.Seconds(),
			WorstCI:            aworst,
			ExhaustivePrefix:   prefixTrials,
			PrefixSaved:        float64(prefixTrials) / float64(executed),
			AdaptiveExecuted:   acamp.Executed,
			TrialsSaved:        float64(trials) / float64(executed),
		})
	}
	return out, nil
}

// worstStruckCI returns the widest Wilson half-width among regions
// struck at least once. Estimator.WorstCI would rank a never-struck
// region as maximally unknown (half-width 0.5), and no trial count can
// tighten a region the fault plan never hits — so the equal-confidence
// comparison anchors on regions the campaign can actually converge.
func worstStruckCI(s *stats.Snapshot) float64 {
	var worst float64
	for _, r := range s.Regions {
		if r.Struck > 0 && r.CIHalfWidth > worst {
			worst = r.CIHalfWidth
		}
	}
	return worst
}

// struckCount counts the regions a snapshot's injected trials struck,
// with strikes outside every region counting as one more.
func struckCount(s *stats.Snapshot) int {
	n := 0
	if s.Unattributed > 0 {
		n++
	}
	for _, r := range s.Regions {
		if r.Struck > 0 {
			n++
		}
	}
	return n
}

// prefixToCI replays the exhaustive ledger one record at a time and
// returns the length of the shortest prefix whose worst struck-region
// Wilson half-width is at least as tight as target, with all the
// regions the full run struck (want) already represented (a prefix that
// simply hasn't hit a slow region yet would otherwise pass vacuously).
// If even the full run never gets there — the adaptive subset can land
// on a slightly tighter estimate than the superset — the full record
// count is returned, a conservative floor for the savings ratio.
func prefixToCI(ledger []byte, want int, target float64) (int, error) {
	scan := &prefixScan{est: stats.New(), want: want, target: target}
	campaigns := 0
	if err := sfi.ReplayLedger(bytes.NewReader(ledger), func() sfi.StatsSink { campaigns++; return scan }); err != nil {
		return 0, err
	}
	if campaigns != 1 {
		return 0, fmt.Errorf("prefix scan: want 1 campaign in the ledger, got %d", campaigns)
	}
	if scan.at == 0 {
		return scan.n, nil
	}
	return scan.at, nil
}

// prefixScan folds records into est until the prefix qualifies; at is
// that prefix's length (0 while none has) and n counts all records.
type prefixScan struct {
	est    *stats.Estimator
	want   int
	target float64
	n, at  int
}

func (p *prefixScan) ObserveCampaign(meta sfi.CampaignMeta) { p.est.ObserveCampaign(meta) }

func (p *prefixScan) ObserveTrial(rec sfi.TrialRecord) {
	p.n++
	if p.at > 0 {
		return
	}
	p.est.ObserveTrial(rec)
	if s := p.est.Snapshot(); struckCount(s) == p.want && worstStruckCI(s) <= p.target {
		p.at = p.n
	}
}

// Render writes the sharding/adaptive-stopping table.
func (r *ShardedResult) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Sharded campaigns: %d trials, %d-shard merge asserted byte-identical; adaptive stopping at equal worst struck-region CI\n", r.Trials, r.Shards)
	fmt.Fprintln(tw, "app\ttrials/s\tshard overhead\tworst CI\tadaptive exec\tbudget saved\tCI-watch prefix\tvs CI-watch")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.2fx\t±%.3f\t%d/%d\t%.2fx\t%d\t%.2fx\n",
			row.App, row.SingleTrialsPerSec, row.ShardOverhead, row.WorstCI,
			row.AdaptiveExecuted, r.Trials, row.TrialsSaved,
			row.ExhaustivePrefix, row.PrefixSaved)
	}
	tw.Flush()
}
