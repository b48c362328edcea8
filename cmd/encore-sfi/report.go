package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"encore/internal/stats"
)

// runReport replays a JSONL trial ledger through the online estimator
// and renders each campaign's attribution from its final snapshot.
func runReport(path string, jsonOut bool, stdout io.Writer) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		defer f.Close()
		in = f
	}
	snaps, err := stats.ReadLedger(in)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("report: trace holds no campaigns")
	}
	if jsonOut {
		return writeReportJSON(stdout, snaps)
	}
	return writeReportText(stdout, snaps)
}

// reportTrials is the trial count a report names: the campaign's plan,
// or the observed records when the header carries no plan.
func reportTrials(s *stats.Snapshot) int {
	if s.Planned == 0 {
		return s.Trials
	}
	return s.Planned
}

// writeReportText renders each campaign as an aligned table.
func writeReportText(w io.Writer, snaps []*stats.Snapshot) error {
	for i, s := range snaps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "app %s: %d trials (%d injected, %d outside regions), seed %d, Dmax %d\n",
			s.App, reportTrials(s), s.Injected, s.Unattributed, s.Seed, s.Dmax)
		fmt.Fprintf(w, "coverage: measured same-instance %.4f vs predicted %.4f (|err| %.4f); recovered %.4f\n",
			s.MeasuredSameInstance, s.PredCoverage, s.AbsErr, s.MeasuredRecovered)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "region\tfn\tclass\tsel\tstruck\trec\tsame\tmeasured\talpha\temp-alpha\t|err|\trollback\treexec")
		for _, r := range s.Regions {
			sel := " "
			if r.Selected {
				sel = "*"
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f\n",
				r.ID, r.Fn, r.Class, sel, r.Struck, r.Recovered, r.SameInstance,
				r.Measured, r.PredAlpha, r.EmpAlpha, r.AbsErr, r.MeanRollback, r.MeanReExec)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// campaignReport is one campaign's element of the -report -json array:
// the snapshot's app-level join with its outcome histogram as an
// object, and its region rows (null when the campaign has none).
type campaignReport struct {
	App      string         `json:"app"`
	Trials   int            `json:"trials"`
	Injected int            `json:"injected"`
	Seed     uint64         `json:"seed"`
	Dmax     int64          `json:"dmax"`
	Outcomes map[string]int `json:"outcomes"`

	MeasuredRecovered    float64 `json:"measured_recovered"`
	MeasuredSameInstance float64 `json:"measured_same_instance"`
	PredCoverage         float64 `json:"pred_coverage"`
	AbsErr               float64 `json:"abs_err"`
	Unattributed         int     `json:"unattributed"`

	Regions []regionRow `json:"regions"`
}

// regionRow is a snapshot region row cut to the attribution columns.
type regionRow struct {
	ID           int     `json:"id"`
	Fn           string  `json:"fn"`
	Header       string  `json:"header"`
	Class        string  `json:"class"`
	Selected     bool    `json:"selected"`
	Struck       int     `json:"struck"`
	Recovered    int     `json:"recovered"`
	SameInstance int     `json:"same_instance"`
	Measured     float64 `json:"measured"`
	PredAlpha    float64 `json:"alpha"`
	EmpAlpha     float64 `json:"emp_alpha"`
	AbsErr       float64 `json:"abs_err"`
	MeanRollback float64 `json:"mean_rollback"`
	MeanReExec   float64 `json:"mean_reexec"`
}

// writeReportJSON renders the campaigns as one indented JSON array.
func writeReportJSON(w io.Writer, snaps []*stats.Snapshot) error {
	reps := make([]campaignReport, len(snaps))
	for i, s := range snaps {
		rep := campaignReport{
			App: s.App, Trials: reportTrials(s), Injected: s.Injected,
			Seed: s.Seed, Dmax: s.Dmax, Outcomes: map[string]int{},
			MeasuredRecovered:    s.MeasuredRecovered,
			MeasuredSameInstance: s.MeasuredSameInstance,
			PredCoverage:         s.PredCoverage,
			AbsErr:               s.AbsErr,
			Unattributed:         s.Unattributed,
		}
		for _, oc := range s.Outcomes {
			rep.Outcomes[oc.Outcome] = oc.Count
		}
		for _, r := range s.Regions {
			rep.Regions = append(rep.Regions, regionRow{
				ID: r.ID, Fn: r.Fn, Header: r.Header, Class: r.Class, Selected: r.Selected,
				Struck: r.Struck, Recovered: r.Recovered, SameInstance: r.SameInstance,
				Measured: r.Measured, PredAlpha: r.PredAlpha, EmpAlpha: r.EmpAlpha, AbsErr: r.AbsErr,
				MeanRollback: r.MeanRollback, MeanReExec: r.MeanReExec,
			})
		}
		reps[i] = rep
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reps)
}
