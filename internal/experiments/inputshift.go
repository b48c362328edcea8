package experiments

import (
	"fmt"
	"io"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// AblInputRow quantifies, for one benchmark, how well Encore's
// profile-derived protection holds up when the production input differs
// from the training input — the statistical risk inherent in Pmin pruning
// and profile-driven selection (§3.4.1's "without incurring any
// measurable risk" claim, put to the test).
type AblInputRow struct {
	App string

	// TrainRecovered / RefRecovered: survivable fraction (recovered or
	// benign) of injected faults on the training input vs. a fresh input
	// drawn from the same distribution.
	TrainRecovered float64
	RefRecovered   float64

	// RefSDC counts silent corruptions on the shifted input.
	TrainSDC, RefSDC int

	// OutputOK confirms the instrumented binary still computes the
	// fault-free golden output on the shifted input (instrumentation
	// correctness is input-independent; only coverage is at risk).
	OutputOK bool
}

// AblInputResult is the input-shift study dataset.
type AblInputResult struct{ Rows []AblInputRow }

// AblationInputShift profiles and compiles each benchmark on its training
// input, then re-randomizes the inputs (same distribution, fresh draw) and
// repeats the fault-injection campaign on the shifted input.
func (h *Harness) AblationInputShift(variant uint64) (*AblInputResult, error) {
	if variant == 0 {
		variant = 7
	}
	trials := h.trials(150)
	rows := make([]AblInputRow, len(h.specs()))
	err := h.forEachSpec(func(i int, sp workload.Spec) error {
		art := sp.Build()
		res, err := core.Compile(art.Mod, core.DefaultConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		row := AblInputRow{App: sp.Name}

		trainCamp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
			Trials: trials, Seed: 21, Dmax: 100, Engine: h.Engine, Checkpoints: sfi.DefaultCheckpoints,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		row.TrainRecovered = trainCamp.RecoveredRate()
		row.TrainSDC = trainCamp.Counts[sfi.SilentCorruption]

		// Shift the inputs of the *instrumented* module in place and
		// check fault-free correctness against an uninstrumented build
		// with the identical shifted inputs.
		if n := workload.ReRandomize(art, variant); n == 0 {
			return fmt.Errorf("%s: no random inputs to shift", sp.Name)
		}
		ref := sp.Build()
		workload.ReRandomize(ref, variant)
		gm := interp.New(ref.Mod, interp.Config{Engine: h.Engine})
		defer gm.Release()
		if _, err := gm.Run(); err != nil {
			return fmt.Errorf("%s: ref golden: %w", sp.Name, err)
		}
		goldenRef := gm.Checksum(ref.Outputs...)
		im := interp.New(res.Mod, interp.Config{Engine: h.Engine})
		defer im.Release()
		im.SetRuntime(res.Metas)
		if _, err := im.Run(); err != nil {
			return fmt.Errorf("%s: ref instrumented: %w", sp.Name, err)
		}
		row.OutputOK = im.Checksum(art.Outputs...) == goldenRef

		refCamp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
			Trials: trials, Seed: 21, Dmax: 100, Engine: h.Engine, Checkpoints: sfi.DefaultCheckpoints,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		row.RefRecovered = refCamp.RecoveredRate()
		row.RefSDC = refCamp.Counts[sfi.SilentCorruption]

		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &AblInputResult{Rows: rows}, nil
}

// Render writes the input-shift table.
func (r *AblInputResult) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Ablation: input shift (train-profiled protection on fresh inputs)\n")
	fmt.Fprintln(tw, "app\tsurvival(train)\tsurvival(ref)\tSDC train/ref\toutput ok")
	acc := meanAcc{}
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%v\n",
			row.App, pct(row.TrainRecovered), pct(row.RefRecovered),
			row.TrainSDC, row.RefSDC, row.OutputOK)
		acc.add(row.TrainRecovered, row.RefRecovered)
	}
	m := acc.means()
	fmt.Fprintf(tw, "Mean\t%s\t%s\n", pct(m[0]), pct(m[1]))
	tw.Flush()
}
