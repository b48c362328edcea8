package sfi

import (
	"bytes"
	"encoding/json"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/workload"
)

// TestCampaignLedgerEngineInvariant locks the engine guarantee: an SFI
// campaign's trial ledger — every per-trial record, in order, down to
// the serialized bytes — is identical whether the default engine or the
// reference loop executes the trials. Outcome counters and the
// same-instance tally must match too.
func TestCampaignLedgerEngineInvariant(t *testing.T) {
	engines := []interp.Engine{interp.EngineFast, interp.EngineRef}
	for _, name := range []string{"175.vpr", "g721encode"} {
		sp, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		art := sp.Build()
		res, err := core.Compile(art.Mod, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		var first *CampaignResult
		var firstBytes []byte
		for _, e := range engines {
			camp, err := RunCampaign(res.Mod, res.Metas, art.Outputs, CampaignConfig{
				Trials: 80, Seed: 11, Dmax: 100, Engine: e, Ledger: true, App: name,
			})
			if err != nil {
				t.Fatalf("%s/%s: campaign: %v", name, e, err)
			}
			raw, err := json.Marshal(camp.Records)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", name, e, err)
			}
			if first == nil {
				first, firstBytes = camp, raw
				continue
			}
			if camp.Counts != first.Counts {
				t.Errorf("%s/%s: outcome counts diverge: %v vs %v (%s)",
					name, e, camp.Counts, first.Counts, engines[0])
			}
			if camp.SameInstance != first.SameInstance {
				t.Errorf("%s/%s: same-instance tally diverges: %d vs %d",
					name, e, camp.SameInstance, first.SameInstance)
			}
			if !bytes.Equal(raw, firstBytes) {
				for i := range camp.Records {
					if camp.Records[i] != first.Records[i] {
						t.Errorf("%s/%s: trial %d record diverges:\n  %+v\nvs\n  %+v",
							name, e, i, camp.Records[i], first.Records[i])
						break
					}
				}
				t.Fatalf("%s/%s: trial ledger not byte-identical to %s", name, e, engines[0])
			}
		}
	}
}
