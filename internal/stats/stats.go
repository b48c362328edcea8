// Package stats maintains online (single-pass, streaming) statistics for
// fault-injection campaigns: per-(region, outcome) counts, recovery-rate
// point estimates with Wilson-score confidence intervals, and streaming
// latency / rollback-distance / re-execution moments (Welford), all fed
// one sfi.TrialRecord at a time in ledger order.
//
// The Estimator is the one outcome accumulator in the repository: it
// answers coverage questions at any prefix of a campaign — which is what
// confidence-interval-driven early stopping, the encore-serve stats
// endpoints, and encore-sfi's upgraded -progress line need — and a
// finished ledger's snapshots come from replaying it through one per
// campaign (ReadLedger), which is how encore-sfi's -report and
// -merge -stats read ledgers back.
//
// Determinism invariant: records reach the estimator through
// sfi.CampaignConfig.Stats, which delivers them in trial-index order
// regardless of worker count, shard size, or execution engine (the same
// ordered-emission machinery behind the byte-identical trial ledger).
// Every accumulator here is therefore updated in one canonical order, so
// Snapshot() — and its JSON encoding — is bit-identical for a given
// trial prefix across any (workers, shard, engine) shape. The package
// tests and scripts/check.sh lock that down.
package stats

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"

	"encore/internal/ci"
	"encore/internal/obs"
	"encore/internal/sfi"
)

// Wilson returns the Wilson-score interval for k successes out of n
// trials at the 95% level: the clamped [lo, hi] bounds and the interval
// half-width. Unlike the naive Wald interval it is well-behaved at
// p̂ ∈ {0, 1} and small n. n <= 0 returns total uncertainty: [0, 1]
// around a 0.5 center, half-width 0.5 — so an unstruck region ranks as
// maximally unknown rather than perfectly estimated.
func Wilson(k, n int) (lo, hi, half float64) {
	return ci.Wilson(k, n)
}

// moments is a streaming accumulator for a value sequence: exact running
// sum (for the reported sum/n mean) plus Welford's online mean/M2
// recurrence for the variance. Fed in one canonical order it is fully
// deterministic.
type moments struct {
	n    int64
	sum  float64
	mean float64
	m2   float64
}

func (m *moments) observe(x float64) {
	m.n++
	m.sum += x
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// avg is the exact sum/n mean (0 when empty).
func (m *moments) avg() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// std is the population standard deviation from Welford's M2.
func (m *moments) std() float64 {
	if m.n == 0 {
		return 0
	}
	return math.Sqrt(m.m2 / float64(m.n))
}

// regionState is one region's accumulators.
type regionState struct {
	info     sfi.RegionInfo
	struck   int
	rec      int
	sameInst int
	outcomes map[string]int
	// alphaSum accumulates the per-trial empirical-α terms of
	// model.AlphaEmpirical — max(0, (n-l)/n) under the uniform
	// fault-site model — in trial order, so alphaSum/struck equals
	// AlphaEmpirical over the same latency sample exactly.
	alphaSum float64
	latency  moments
	rollback moments // RollbackDistance over rolled-back trials
	reexec   moments // ReExecInstrs over completed trials that re-executed
}

// Estimator consumes one campaign's trial records in ledger order and
// answers streaming per-region coverage queries. It implements
// sfi.StatsSink; attach one via sfi.CampaignConfig.Stats. All methods
// are safe for concurrent use (the campaign feeds records while HTTP
// handlers or progress lines snapshot).
type Estimator struct {
	mu       sync.Mutex
	meta     sfi.CampaignMeta
	haveMeta bool
	predCov  float64

	trials   int
	injected int
	rec      int
	sameInst int
	unattrib int
	outcomes map[string]int
	regions  map[int]*regionState
}

// New returns an empty estimator. The campaign header arrives through
// ObserveCampaign before the first trial record.
func New() *Estimator {
	return &Estimator{
		outcomes: map[string]int{},
		regions:  map[int]*regionState{},
	}
}

// ObserveCampaign implements sfi.StatsSink: it seeds the estimator with
// the campaign header — one region row per prediction-table entry (so
// unstruck regions still appear in snapshots) and the analytical
// coverage prediction Σ dyn_frac·α over selected regions, summed in
// table order.
func (e *Estimator) ObserveCampaign(meta sfi.CampaignMeta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.meta = meta
	e.haveMeta = true
	e.predCov = 0
	for _, ri := range meta.Regions {
		rs := e.regions[ri.ID]
		if rs == nil {
			rs = &regionState{outcomes: map[string]int{}}
			e.regions[ri.ID] = rs
		}
		rs.info = ri
		if ri.Selected {
			e.predCov += ri.DynFrac * ri.Alpha
		}
	}
}

// ObserveTrial implements sfi.StatsSink: it folds one trial record into
// the campaign-level and per-region accumulators. Records must arrive in
// trial order (sfi.RunCampaign's Stats plumbing guarantees this).
func (e *Estimator) ObserveTrial(rec sfi.TrialRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trials++
	e.outcomes[rec.Outcome.String()]++
	if !rec.Injected {
		return
	}
	e.injected++
	if rec.Outcome == sfi.Recovered {
		e.rec++
		if rec.SameInstance {
			e.sameInst++
		}
	}
	if rec.RegionID < 0 {
		e.unattrib++
		return
	}
	rs := e.regions[rec.RegionID]
	if rs == nil {
		// A strike in a region absent from the header table: synthesize a
		// bare row so nothing is lost.
		rs = &regionState{outcomes: map[string]int{}}
		rs.info.ID = rec.RegionID
		rs.info.Class = rec.Class
		e.regions[rec.RegionID] = rs
	}
	rs.struck++
	rs.outcomes[rec.Outcome.String()]++
	if n := rs.info.InstanceLen; n > 0 {
		l := float64(rec.Latency)
		if l < 0 {
			l = 0
		}
		if l < n {
			rs.alphaSum += (n - l) / n
		}
	}
	rs.latency.observe(float64(rec.Latency))
	if rec.Outcome == sfi.Recovered {
		rs.rec++
		if rec.SameInstance {
			rs.sameInst++
		}
	}
	if rec.RolledBack {
		rs.rollback.observe(float64(rec.RollbackDistance))
	}
	if rec.ReExecInstrs > 0 {
		rs.reexec.observe(float64(rec.ReExecInstrs))
	}
}

// Priors distills the observed campaign into the tallies adaptive
// stopping reuses (sfi.CampaignConfig.Prior): strikes and recoveries of
// each struck region, in region-ID order. A region whose header row has
// no content hash is left out: without it nothing shows the region's
// code unchanged.
func (e *Estimator) Priors() []sfi.PriorRegion {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []sfi.PriorRegion
	for _, id := range sortedIDs(e.regions) {
		if rs := e.regions[id]; rs.info.Hash != "" && rs.struck > 0 {
			out = append(out, sfi.PriorRegion{Hash: rs.info.Hash, Struck: rs.struck, Recovered: rs.rec})
		}
	}
	return out
}

// Trials returns how many trial records the estimator has observed.
func (e *Estimator) Trials() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trials
}

// WorstCI returns the selected region with the widest Wilson-score
// confidence half-width on its recovery rate — the region a
// variance-aware budget allocator would spend the next trials on — and
// that half-width. Ties resolve to the lowest region ID; with no
// selected regions it returns (-1, 0).
func (e *Estimator) WorstCI() (id int, half float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.worstLocked()
}

// worstLocked scans selected regions in ID order; the caller holds e.mu.
func (e *Estimator) worstLocked() (int, float64) {
	worst, worstHW := -1, -1.0
	for _, id := range sortedIDs(e.regions) {
		rs := e.regions[id]
		if !rs.info.Selected {
			continue
		}
		if _, _, hw := Wilson(rs.rec, rs.struck); hw > worstHW {
			worst, worstHW = id, hw
		}
	}
	if worst < 0 {
		return -1, 0
	}
	return worst, worstHW
}

// OutcomeCount is one outcome's tally in a snapshot, keyed by the stable
// outcome name (sfi.Outcome.String). Snapshots carry sorted slices
// rather than maps so their JSON encoding is deterministic.
type OutcomeCount struct {
	Outcome string `json:"outcome"`
	Count   int    `json:"count"`
}

// RegionStats is one region's row in a snapshot: identity and prediction
// inputs from the campaign header, the measured tallies, the Wilson
// interval on the recovery rate, and the streaming moments.
type RegionStats struct {
	ID       int    `json:"id"`
	Fn       string `json:"fn"`
	Header   string `json:"header"`
	Class    string `json:"class"`
	Selected bool   `json:"selected"`

	Struck       int            `json:"struck"`
	Recovered    int            `json:"recovered"`
	SameInstance int            `json:"same_instance"`
	Outcomes     []OutcomeCount `json:"outcomes,omitempty"`

	// Measured is the point estimate Recovered/Struck; WilsonLo/WilsonHi
	// bound it at 95% and CIHalfWidth is the interval's half-width (0.5
	// for an unstruck region: total uncertainty).
	Measured    float64 `json:"measured"`
	WilsonLo    float64 `json:"wilson_lo"`
	WilsonHi    float64 `json:"wilson_hi"`
	CIHalfWidth float64 `json:"ci_half_width"`

	// PredAlpha is Equation 7's α from the campaign header; EmpAlpha the
	// empirical α conditioned on the latencies actually sampled for the
	// strikes (model.AlphaEmpirical, accumulated online); AbsErr is
	// |Measured − PredAlpha|.
	PredAlpha float64 `json:"alpha"`
	EmpAlpha  float64 `json:"emp_alpha"`
	AbsErr    float64 `json:"abs_err"`

	// Streaming moments: detection latency over struck trials, rollback
	// distance over rolled-back trials, re-executed instructions over
	// completed trials that re-executed. Means are exact sum/n; stds come
	// from Welford's recurrence.
	LatencyMean  float64 `json:"latency_mean"`
	LatencyStd   float64 `json:"latency_std"`
	MeanRollback float64 `json:"mean_rollback"`
	RollbackStd  float64 `json:"rollback_std"`
	MeanReExec   float64 `json:"mean_reexec"`
	ReExecStd    float64 `json:"reexec_std"`
}

// Snapshot is a point-in-time view of one campaign's estimator: the
// campaign identity, overall measured-vs-predicted coverage, the
// outcome histogram, and per-region rows in ID order. For a given trial
// prefix its JSON encoding is byte-identical across worker counts,
// shard sizes, and execution engines.
type Snapshot struct {
	App string `json:"app"`
	// Planned is the campaign's configured trial count (the ledger
	// header's Trials); Trials counts the records observed so far, so
	// Trials < Planned identifies a mid-campaign snapshot.
	Planned  int    `json:"planned"`
	Trials   int    `json:"trials"`
	Injected int    `json:"injected"`
	Seed     uint64 `json:"seed"`
	Dmax     int64  `json:"dmax"`

	Outcomes []OutcomeCount `json:"outcomes"`

	// MeasuredRecovered and MeasuredSameInstance are fractions of
	// injected trials; PredCoverage is Σ dyn_frac·α over selected header
	// regions and AbsErr is |MeasuredSameInstance − PredCoverage| — the
	// app-level join encore-sfi -report prints.
	MeasuredRecovered    float64 `json:"measured_recovered"`
	MeasuredSameInstance float64 `json:"measured_same_instance"`
	PredCoverage         float64 `json:"pred_coverage"`
	AbsErr               float64 `json:"abs_err"`
	// Unattributed counts injected trials striking outside any region.
	Unattributed int `json:"unattributed"`

	// WorstRegionID is the selected region with the widest recovery-rate
	// CI (−1 when none are selected) and WorstCIHalfWidth its half-width
	// — the convergence signal encore-sfi's -progress line surfaces.
	WorstRegionID    int     `json:"worst_region_id"`
	WorstCIHalfWidth float64 `json:"worst_ci_half_width"`

	Regions []RegionStats `json:"regions"`
}

// Snapshot captures the estimator's current state. Safe to call
// concurrently with ObserveTrial; the result is internally consistent
// (it is built under the estimator's lock).
func (e *Estimator) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot{
		App:          e.meta.App,
		Planned:      e.meta.Trials,
		Trials:       e.trials,
		Injected:     e.injected,
		Seed:         e.meta.Seed,
		Dmax:         e.meta.Dmax,
		Outcomes:     outcomeCounts(e.outcomes),
		PredCoverage: e.predCov,
		Unattributed: e.unattrib,
		Regions:      []RegionStats{},
	}
	if e.injected > 0 {
		s.MeasuredRecovered = float64(e.rec) / float64(e.injected)
		s.MeasuredSameInstance = float64(e.sameInst) / float64(e.injected)
	}
	s.AbsErr = math.Abs(s.MeasuredSameInstance - s.PredCoverage)
	s.WorstRegionID, s.WorstCIHalfWidth = e.worstLocked()
	for _, id := range sortedIDs(e.regions) {
		rs := e.regions[id]
		row := RegionStats{
			ID: rs.info.ID, Fn: rs.info.Fn, Header: rs.info.Header,
			Class: rs.info.Class, Selected: rs.info.Selected,
			Struck: rs.struck, Recovered: rs.rec, SameInstance: rs.sameInst,
			Outcomes:    outcomeCounts(rs.outcomes),
			PredAlpha:   rs.info.Alpha,
			LatencyMean: rs.latency.avg(), LatencyStd: rs.latency.std(),
			MeanRollback: rs.rollback.avg(), RollbackStd: rs.rollback.std(),
			MeanReExec: rs.reexec.avg(), ReExecStd: rs.reexec.std(),
		}
		if rs.struck > 0 {
			row.Measured = float64(rs.rec) / float64(rs.struck)
			row.EmpAlpha = rs.alphaSum / float64(rs.struck)
		}
		row.AbsErr = math.Abs(row.Measured - row.PredAlpha)
		row.WilsonLo, row.WilsonHi, row.CIHalfWidth = Wilson(rs.rec, rs.struck)
		s.Regions = append(s.Regions, row)
	}
	return s
}

// outcomeCounts renders an outcome tally map as a name-sorted slice (an
// empty map yields an empty, non-nil slice so JSON stays "[]").
func outcomeCounts(m map[string]int) []OutcomeCount {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]OutcomeCount, 0, len(names))
	for _, name := range names {
		out = append(out, OutcomeCount{Outcome: name, Count: m[name]})
	}
	return out
}

// sortedIDs returns the region IDs in ascending order.
func sortedIDs(m map[int]*regionState) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ReadLedger replays a JSONL trial ledger through one fresh estimator
// per campaign (sfi.ReplayLedger) and returns their final snapshots in
// ledger order, each byte-identical to the one the live campaign's
// estimator ended with. Memory grows with campaigns and regions, not
// trials.
func ReadLedger(r io.Reader) ([]*Snapshot, error) {
	var ests []*Estimator
	err := sfi.ReplayLedger(r, func() sfi.StatsSink {
		e := New()
		ests = append(ests, e)
		return e
	})
	if err != nil {
		return nil, err
	}
	snaps := make([]*Snapshot, len(ests))
	for i, e := range ests {
		snaps[i] = e.Snapshot()
	}
	return snaps, nil
}

// WriteSnapshots marshals snapshots as one indented JSON array — the
// payload of encore-sfi's -stats flag (one element per campaign run).
func WriteSnapshots(w io.Writer, snaps []*Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// WriteSnapshotsFile implements encore-sfi's -stats flag: it writes the
// snapshots through obs.WriteOutput.
func WriteSnapshotsFile(path string, snaps []*Snapshot, stdout io.Writer) error {
	return obs.WriteOutput(path, stdout, func(w io.Writer) error { return WriteSnapshots(w, snaps) })
}
