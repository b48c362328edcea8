package sfi

import (
	"encore/internal/ci"
	"encore/internal/trace"
)

// NotInjectedKey is the pseudo-region key adaptive stopping uses for
// trials whose fault never fires (the program completes before the
// injection slot). It shares the key space with region IDs (-1 =
// unprotected code, >= 0 = region) without colliding.
const NotInjectedKey = -2

// Stopper is the variance-aware adaptive stopping policy for injection
// campaigns: it halts sampling for region keys whose recovery-rate
// Wilson interval has converged below TargetCI, so the remaining trial
// budget is spent only on regions whose estimate is still wide.
//
// Each trial is decided once, from the tallies of the whole rounds
// before its own in the trial-ordered record prefix, and the round size
// depends only on the trial count — never on Workers or Engine — so an
// adaptive campaign executes exactly the same trial subset (and emits
// exactly the same ledger bytes) across both of those knobs for a fixed
// seed.
type Stopper struct {
	// TargetCI is the Wilson half-width at which a region key counts as
	// converged. Zero selects DefaultTargetCI.
	TargetCI float64
	// Round is the number of consecutive planned trials between
	// convergence rescorings; every trial of a round is decided from the
	// same halted set. Zero selects a heuristic from the campaign's trial
	// count alone (clamped to [MinRound, MaxRound]); negative is
	// rejected by RunCampaign.
	Round int
}

// Adaptive round-size bounds and the default convergence target.
const (
	// DefaultTargetCI is the convergence half-width used when
	// Stopper.TargetCI is zero.
	DefaultTargetCI = 0.05
	// MinRound and MaxRound clamp the heuristic round size.
	MinRound = 32
	MaxRound = 1024
)

// roundSize resolves the stopping-decision cadence for a campaign of
// the given trial count.
func (s *Stopper) roundSize(trials int) int {
	if s.Round > 0 {
		return s.Round
	}
	r := trials / 32
	if r < MinRound {
		r = MinRound
	}
	if r > MaxRound {
		r = MaxRound
	}
	return r
}

// target resolves the convergence half-width.
func (s *Stopper) target() float64 {
	if s.TargetCI > 0 {
		return s.TargetCI
	}
	return DefaultTargetCI
}

// PriorRegion seeds adaptive stopping with a prior campaign's tally for
// one region, keyed by region content hash (FastFlip-style compositional
// reuse). A region of the current module whose hash matches starts with
// these counts already folded in: if the prior campaign converged it,
// the re-run skips its trials entirely and only re-injects regions whose
// code actually changed.
type PriorRegion struct {
	// Hash is the region content hash the counts belong to.
	Hash string
	// Struck is how many prior injected trials landed in the region.
	Struck int
	// Recovered is how many of those ended in Outcome Recovered.
	Recovered int
}

// keyTally accumulates one region key's adaptive evidence: n observed
// strikes (plus prior), k recoveries among them.
type keyTally struct {
	n, k int
}

// stopRun is the per-campaign state behind a Stopper: the golden run's
// region map, which predicts a planned trial's region key on demand,
// per-key tallies, and the halted set. Every method runs under the
// campaign's drain lock: skip once per trial, after the drain has
// reached the trial's round, and observe and rescore in the trial-order
// drain itself.
type stopRun struct {
	target float64
	round  int
	rm     *trace.RegionMap
	tally  map[int]*keyTally
	halted map[int]bool

	mispred int
	skipped int
}

// newStopRun seeds prior tallies by content hash and computes the initial
// halted set.
func newStopRun(stop *Stopper, rm *trace.RegionMap, regions []RegionInfo, prior []PriorRegion, trials int) *stopRun {
	s := &stopRun{
		target: stop.target(),
		round:  stop.roundSize(trials),
		rm:     rm,
		tally:  map[int]*keyTally{},
		halted: map[int]bool{},
	}
	if len(prior) > 0 {
		byHash := make(map[string]PriorRegion, len(prior))
		for _, p := range prior {
			if p.Hash != "" {
				byHash[p.Hash] = p
			}
		}
		for _, ri := range regions {
			if p, ok := byHash[ri.Hash]; ok && ri.Hash != "" {
				s.tally[ri.ID] = &keyTally{n: p.Struck, k: p.Recovered}
			}
		}
	}
	s.rescore()
	return s
}

// predict returns the region key the golden run places a strike at
// dynamic instruction injectAt in.
func (s *stopRun) predict(injectAt int64) int {
	if r, ok := s.rm.RegionAt(injectAt); ok {
		return r
	}
	return NotInjectedKey
}

// skip reports, and counts, whether the trial striking at injectAt is
// skipped: its predicted key is already halted. The halted set changes
// only when the drain passes a round's last trial, and the campaign asks
// after the drain has reached the trial's round and before it can pass
// the trial, so the answer reads the tallies of exactly the earlier
// rounds, whatever the worker shape.
func (s *stopRun) skip(injectAt int64) bool {
	if !s.halted[s.predict(injectAt)] {
		return false
	}
	s.skipped++
	return true
}

// observe folds one executed trial's record into the tallies, keyed by
// the *actual* strike region, and counts a disagreement with the
// predicted key. The halted set only changes at the next rescore.
func (s *stopRun) observe(rec *TrialRecord) {
	key := NotInjectedKey
	if rec.Injected {
		key = rec.RegionID
	}
	if key != s.predict(rec.InjectAt) {
		s.mispred++
	}
	tl := s.tally[key]
	if tl == nil {
		tl = &keyTally{}
		s.tally[key] = tl
	}
	tl.n++
	if rec.Outcome == Recovered {
		tl.k++
	}
}

// rescore moves every converged key into the halted set; the drain
// calls it as it passes each round's last trial. Halting is monotone:
// once a key converges it stays halted, so skip decisions can only grow
// between rounds.
func (s *stopRun) rescore() {
	for key, tl := range s.tally {
		if s.halted[key] {
			continue
		}
		if _, _, half := ci.Wilson(tl.k, tl.n); half <= s.target {
			s.halted[key] = true
		}
	}
}
