// Package attrib ingests the JSONL trial ledgers emitted by SFI campaigns
// (internal/sfi with a Trace sink) and attributes measured outcomes back
// to the regions the faults struck, joining each region's measured
// recovery rate against the analytical prediction (Equation 7's α carried
// in the campaign header) to produce measured-vs-predicted coverage
// tables with absolute-error columns — the region-by-region validation of
// the paper's Figure 8 model.
package attrib

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"encore/internal/sfi"
	"encore/internal/stats"
)

// Campaign pairs one campaign's ledger header with its trial records, in
// the order they appeared on the wire.
type Campaign struct {
	Meta    sfi.CampaignMeta
	Records []sfi.TrialRecord
}

// ReadTrace parses a JSONL trial trace: any number of campaigns, each a
// header line (type "campaign") followed by its trial lines (type
// "trial"). Unknown type tags are an error, as is a trial line with no
// preceding header.
func ReadTrace(r io.Reader) ([]*Campaign, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var (
		out  []*Campaign
		cur  *Campaign
		line int
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("attrib: line %d: %w", line, err)
		}
		switch tag.Type {
		case sfi.TraceCampaign:
			var env sfi.CampaignEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				return nil, fmt.Errorf("attrib: line %d: campaign header: %w", line, err)
			}
			cur = &Campaign{Meta: env.CampaignMeta}
			out = append(out, cur)
		case sfi.TraceTrial:
			if cur == nil {
				return nil, fmt.Errorf("attrib: line %d: trial record before any campaign header", line)
			}
			var env sfi.TrialEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				return nil, fmt.Errorf("attrib: line %d: trial record: %w", line, err)
			}
			cur.Records = append(cur.Records, env.TrialRecord)
		default:
			return nil, fmt.Errorf("attrib: line %d: unknown record type %q", line, tag.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("attrib: %w", err)
	}
	return out, nil
}

// RegionRow is one region's measured-vs-predicted attribution line: how
// many trials struck it, how they resolved, and how the measured recovery
// rate compares with the analytical α carried in the campaign header
// (plus the empirical α conditioned on the latencies actually sampled for
// the strikes, which removes the latency distribution as an error
// source).
type RegionRow struct {
	ID       int    `json:"id"`
	Fn       string `json:"fn"`
	Header   string `json:"header"`
	Class    string `json:"class"`
	Selected bool   `json:"selected"`

	Struck       int `json:"struck"`        // trials whose fault landed in this region
	Recovered    int `json:"recovered"`     // struck trials that fully recovered
	SameInstance int `json:"same_instance"` // recoveries at the struck instance itself

	Measured  float64 `json:"measured"`  // Recovered / Struck
	PredAlpha float64 `json:"alpha"`     // Equation-7 α from the campaign header
	EmpAlpha  float64 `json:"emp_alpha"` // α conditioned on the sampled latencies
	AbsErr    float64 `json:"abs_err"`   // |Measured − PredAlpha|

	MeanRollback float64 `json:"mean_rollback"` // instructions discarded per rollback
	MeanReExec   float64 `json:"mean_reexec"`   // extra instructions vs golden per completed trial
}

// Report is one campaign's full attribution: the app-level
// measured-vs-predicted coverage join and the per-region rows in ID
// order. Faults landing outside any formed region are accounted in
// Unattributed rather than a row.
type Report struct {
	App      string `json:"app"`
	Trials   int    `json:"trials"`
	Injected int    `json:"injected"`
	Seed     uint64 `json:"seed"`
	Dmax     int64  `json:"dmax"`

	// Outcomes counts trials per final outcome name.
	Outcomes map[string]int `json:"outcomes"`

	// MeasuredRecovered is the fraction of injected trials that fully
	// recovered (rollback ran and the output matched the golden run).
	MeasuredRecovered float64 `json:"measured_recovered"`
	// MeasuredSameInstance is the fraction of injected trials recovered at
	// the very instance the fault struck — the event Equation 7's α
	// models, and therefore the direct measured counterpart of
	// PredCoverage.
	MeasuredSameInstance float64 `json:"measured_same_instance"`
	// PredCoverage is Σ dyn_frac·α over selected regions from the
	// campaign header (core.Result.RecoverableCoverage at the campaign's
	// Dmax).
	PredCoverage float64 `json:"pred_coverage"`
	// AbsErr is |MeasuredSameInstance − PredCoverage|.
	AbsErr float64 `json:"abs_err"`

	// Unattributed counts injected trials whose fault struck outside any
	// formed region.
	Unattributed int `json:"unattributed"`

	Regions []RegionRow `json:"regions"`
}

// Attribute aggregates one campaign's trial records per region and joins
// them against the header's prediction table. It replays the ledger
// through the online estimator (stats.Replay) and renders the final
// snapshot, so a finished campaign's report is the live stats view's by
// construction.
func Attribute(c *Campaign) *Report {
	return FromStats(stats.Replay(c.Meta, c.Records).Snapshot())
}

// WriteText renders reports as aligned human-readable tables, one
// campaign after another.
func WriteText(w io.Writer, reps []*Report) error {
	for i, rep := range reps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "app %s: %d trials (%d injected, %d outside regions), seed %d, Dmax %d\n",
			rep.App, rep.Trials, rep.Injected, rep.Unattributed, rep.Seed, rep.Dmax)
		fmt.Fprintf(w, "coverage: measured same-instance %.4f vs predicted %.4f (|err| %.4f); recovered %.4f\n",
			rep.MeasuredSameInstance, rep.PredCoverage, rep.AbsErr, rep.MeasuredRecovered)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "region\tfn\tclass\tsel\tstruck\trec\tsame\tmeasured\talpha\temp-alpha\t|err|\trollback\treexec")
		for _, r := range rep.Regions {
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

// WriteJSON renders reports as a single indented JSON array.
func WriteJSON(w io.Writer, reps []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reps)
}

// ReadReports parses the JSON array WriteJSON produces, for downstream
// tooling that consumes rendered reports rather than raw traces.
func ReadReports(r io.Reader) ([]*Report, error) {
	var reps []*Report
	if err := json.NewDecoder(r).Decode(&reps); err != nil {
		return nil, fmt.Errorf("attrib: reports: %w", err)
	}
	return reps, nil
}
