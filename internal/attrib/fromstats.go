package attrib

import (
	"encore/internal/stats"
)

// FromStats converts an online estimator snapshot (internal/stats) into
// an attribution Report. It is the only place reports are built:
// Attribute renders a ledger by replaying it through an estimator, so the
// live stats endpoints of encore-serve and the post-hoc report agree at
// campaign end by construction (TestFromStatsMatchesAttribute checks the
// live feed against the replay). It also renders mid-campaign snapshots
// as partial reports (Trials then reflects the observed prefix, not the
// plan).
func FromStats(s *stats.Snapshot) *Report {
	rep := &Report{
		App:      s.App,
		Trials:   s.Planned,
		Injected: s.Injected,
		Seed:     s.Seed,
		Dmax:     s.Dmax,
		Outcomes: make(map[string]int),

		MeasuredRecovered:    s.MeasuredRecovered,
		MeasuredSameInstance: s.MeasuredSameInstance,
		PredCoverage:         s.PredCoverage,
		AbsErr:               s.AbsErr,
		Unattributed:         s.Unattributed,
	}
	if rep.Trials == 0 {
		rep.Trials = s.Trials
	}
	for _, oc := range s.Outcomes {
		rep.Outcomes[oc.Outcome] = oc.Count
	}
	for _, r := range s.Regions {
		rep.Regions = append(rep.Regions, RegionRow{
			ID: r.ID, Fn: r.Fn, Header: r.Header, Class: r.Class,
			Selected: r.Selected,
			Struck:   r.Struck, Recovered: r.Recovered, SameInstance: r.SameInstance,
			Measured: r.Measured, PredAlpha: r.PredAlpha, EmpAlpha: r.EmpAlpha,
			AbsErr:       r.AbsErr,
			MeanRollback: r.MeanRollback, MeanReExec: r.MeanReExec,
		})
	}
	return rep
}
