package experiments

import (
	"fmt"
	"io"
	"time"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// EngineRow is one execution engine's measured simulator throughput on
// the instrumented representative workload.
type EngineRow struct {
	Engine string
	// MInstrPerSec is steady-state dispatch speed over full fault-free
	// runs (the default engine's one-time closure compilation is warmed
	// up beforehand, as every long-lived machine pool amortizes it).
	MInstrPerSec float64
	// TrialsPerSec is end-to-end SFI campaign throughput — the quantity
	// the Monte-Carlo experiments actually pay for.
	TrialsPerSec float64
}

// EnginesResult is the engine-throughput comparison dataset.
type EnginesResult struct {
	App    string
	Trials int
	Rows   []EngineRow
}

// dispatchRuns is the number of timed fault-free runs per engine.
const dispatchRuns = 5

// Engines measures each execution engine on one representative workload:
// raw dispatch speed over the instrumented module and SFI trial
// throughput. Outcomes are engine-invariant — the campaign counts are
// asserted identical across engines as a side effect — so the spread
// between rows is pure simulator speed.
func (h *Harness) Engines(app string) (*EnginesResult, error) {
	if app == "" {
		app = "175.vpr"
	}
	sp, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	art := sp.Build()
	res, err := core.Compile(art.Mod, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	trials := h.trials(300)
	out := &EnginesResult{App: app, Trials: trials}
	var golden *sfi.CampaignResult
	for _, e := range []interp.Engine{interp.EngineFast, interp.EngineRef} {
		m := interp.New(res.Mod, interp.Config{Engine: e})
		m.SetRuntime(res.Metas)
		if _, err := m.Run(); err != nil { // warm-up: closure AOT compile, caches
			m.Release()
			return nil, fmt.Errorf("%s/%s: %w", app, e, err)
		}
		var instrs int64
		start := time.Now()
		for i := 0; i < dispatchRuns; i++ {
			m.Reset()
			if _, err := m.Run(); err != nil {
				m.Release()
				return nil, fmt.Errorf("%s/%s: %w", app, e, err)
			}
			instrs += m.Count
		}
		dispatch := float64(instrs) / time.Since(start).Seconds() / 1e6
		m.Release()

		start = time.Now()
		camp, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
			Trials: trials, Seed: 7, Dmax: 100, Engine: e, Checkpoints: sfi.DefaultCheckpoints,
		})
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", app, e, err)
		}
		if golden == nil {
			golden = camp
		} else if camp.Counts != golden.Counts || camp.SameInstance != golden.SameInstance {
			return nil, fmt.Errorf("%s/%s: campaign outcomes diverged from %s: %v vs %v",
				app, e, interp.EngineFast, camp.Counts, golden.Counts)
		}
		out.Rows = append(out.Rows, EngineRow{
			Engine:       e.String(),
			MInstrPerSec: dispatch,
			TrialsPerSec: float64(trials) / wall.Seconds(),
		})
	}
	return out, nil
}

// Render writes the engine-throughput table.
func (r *EnginesResult) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Engine throughput on %s (%d SFI trials; outcomes engine-invariant)\n", r.App, r.Trials)
	fmt.Fprintln(tw, "engine\tdispatch Minstr/s\tSFI trials/s")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.0f\n", row.Engine, row.MInstrPerSec, row.TrialsPerSec)
	}
	tw.Flush()
}
