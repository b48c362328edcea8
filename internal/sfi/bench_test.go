package sfi

import (
	"fmt"
	"testing"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/workload"
)

// BenchmarkGoldenPass times a campaign's prologue alone — Prepare's
// fresh machine pool and golden run on it — per application, at zero
// checkpoints (a plain Run) and at DefaultCheckpoints (the one-pass
// RunLadder, whose rungs, captures and footprint are reported per op).
// It reproduces the prologue layer of a campaign without the trials:
//
//	go test -run '^$' -bench GoldenPass ./internal/sfi
func BenchmarkGoldenPass(b *testing.B) {
	for _, app := range []string{"rawcaudio", "175.vpr", "164.gzip", "256.bzip2"} {
		sp, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		art := sp.Build()
		ccfg := core.DefaultConfig()
		ccfg.Obs = obs.NewRegistry()
		an, err := core.Analyze(art.Mod, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := an.Instrument(ccfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, ck := range []int{0, DefaultCheckpoints} {
			b.Run(fmt.Sprintf("%s/ckpt%d", app, ck), func(b *testing.B) {
				reg := obs.NewRegistry()
				var g *Golden
				for range b.N {
					if g, err = Prepare(res.Mod, res.Metas, art.Outputs, 0, ck, reg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(g.total), "instrs/op")
				b.ReportMetric(float64(g.ladder.Len()), "rungs")
				b.ReportMetric(float64(g.ladder.Captures()), "captures")
				b.ReportMetric(float64(g.Footprint()), "ladder-B")
			})
		}
	}
}
