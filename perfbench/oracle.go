package main

import (
	"io"
	"sort"

	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
)

// refLedger recomputes an op's ledger on the path the oracle trusts and
// returns its SHA-256.
func refLedger(o op) (string, error) {
	ledger := newLedgerDigest()
	if err := writeRefLedger(o, ledger); err != nil {
		return "", err
	}
	return ledger.sum(), nil
}

// writeRefLedger writes an op's ledger as the oracle derives it: a fresh
// build (or parse) and compile, and a campaign on the reference engine
// with no checkpoint ladder.
func writeRefLedger(o op, w io.Writer) error {
	res, outs, err := compileOp(o, interp.EngineRef)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(w)
	if _, err := sfi.RunCampaign(res.Mod, res.Metas, outs, sfi.CampaignConfig{
		Trials: o.Trials, Seed: o.Seed, Dmax: o.Dmax, Workers: 1, Engine: interp.EngineRef,
		Obs: obs.NewRegistry(), App: o.App, Regions: serve.RegionTable(res, o.Dmax), Trace: sink,
	}); err != nil {
		return err
	}
	return sink.Err()
}

// oracleKey groups ops for sample coverage: every application of each
// request kind, and inline modules as one group.
func oracleKey(o op) string {
	if o.Kind == kindServedInline {
		return o.Kind.String()
	}
	return o.Kind.String() + "/" + o.App
}

// oracleSample picks which successful runs the oracle re-derives: the
// first run of every oracleKey group, then runs drawn with the workload
// seed until limit runs are picked. It returns indices into runs.
func oracleSample(runs []opRun, seed uint64, limit int) []int {
	order := make([]int, 0, len(runs))
	for i, r := range runs {
		if r.err == nil {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return runs[order[a]].op.Index < runs[order[b]].op.Index })
	seen := map[string]bool{}
	var pick, rest []int
	for _, i := range order {
		if k := oracleKey(runs[i].op); !seen[k] {
			seen[k] = true
			pick = append(pick, i)
		} else {
			rest = append(rest, i)
		}
	}
	rng := splitmix64(seed ^ 0x0AC1E)
	for len(pick) < limit && len(rest) > 0 {
		j := rng.intn(len(rest))
		pick = append(pick, rest[j])
		rest[j] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
	}
	return pick
}
