package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"encore/internal/sfi"
)

// firstOp returns the first op of the workload's stream whose application
// is app, with its trial count cut to trials to keep the test short.
func firstOp(t *testing.T, workload, app string, kind opKind, trials int) op {
	t.Helper()
	g, err := newOpGen(workload, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if o := g.next(); o.Kind == kind && (app == "" || o.App == app) {
			o.Trials = trials
			return o
		}
	}
	t.Fatalf("no %s op for %q", kind, app)
	return op{}
}

// tamper flips the outcome of one trial record in a JSONL ledger.
func tamper(t *testing.T, ledger []byte) string {
	t.Helper()
	for _, pair := range [][2]string{{`"outcome":"recovered"`, `"outcome":"benign"`}, {`"outcome":"benign"`, `"outcome":"recovered"`}} {
		if i := bytes.Index(ledger, []byte(pair[0])); i >= 0 {
			bad := append(append(append([]byte{}, ledger[:i]...), pair[1]...), ledger[i+len(pair[0]):]...)
			sum := sha256.Sum256(bad)
			return hex.EncodeToString(sum[:])
		}
	}
	t.Fatal("ledger has no recovered or benign trial to tamper with")
	return ""
}

func TestOracleFlagsTamperedCampaignLedger(t *testing.T) {
	b := newCampaignBench()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	r := b.runOne(firstOp(t, "campaign", "175.vpr", kindCampaign, 24), nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := b.check(r); err != nil {
		t.Fatalf("untampered ledger rejected: %v", err)
	}
	var ledger bytes.Buffer
	if err := writeRefLedger(r.op, &ledger); err != nil {
		t.Fatal(err)
	}
	r.digest = tamper(t, ledger.Bytes())
	if err := b.check(r); err == nil {
		t.Fatal("oracle accepted a ledger with one trial outcome changed")
	}
}

func TestOracleFlagsTamperedServedLedger(t *testing.T) {
	b := newServedBench()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.teardown(); err != nil {
			t.Error(err)
		}
	}()
	for _, kind := range []opKind{kindServedKnobs, kindServedInline} {
		r := b.do(firstOp(t, "served", "", kind, 16), "tenant-0", nil)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if err := b.check(r); err != nil {
			t.Fatalf("%s: served ledger differs from its batch ledger: %v", kind, err)
		}
		var ledger bytes.Buffer
		if err := writeRefLedger(r.op, &ledger); err != nil {
			t.Fatal(err)
		}
		r.digest = tamper(t, ledger.Bytes())
		if err := b.check(r); err == nil {
			t.Fatalf("%s: oracle accepted a tampered served ledger", kind)
		}
	}
}

func TestOracleFlagsTamperedMaskingTally(t *testing.T) {
	b := newMaskingBench()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	r := b.runOne(firstOp(t, "masking", "300.twolf", kindMasking, 24), nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := b.check(r); err != nil {
		t.Fatalf("untampered tally rejected: %v", err)
	}
	var masked, visible, notInjected int
	if _, err := fmt.Sscanf(r.digest, "masked=%d visible=%d not-injected=%d", &masked, &visible, &notInjected); err != nil {
		t.Fatal(err)
	}
	r.digest = maskingTally(&sfi.MaskingResult{ArchMasked: masked - 1, ArchVisible: visible + 1, NotInjected: notInjected})
	if err := b.check(r); err == nil {
		t.Fatal("oracle accepted a masking tally with one strike moved from masked to visible")
	}
}

func TestOracleSampleCoversEveryApp(t *testing.T) {
	g, err := newOpGen("campaign", 5)
	if err != nil {
		t.Fatal(err)
	}
	var runs []opRun
	for _, o := range g.take(100) {
		runs = append(runs, opRun{op: o})
	}
	pick := oracleSample(runs, 5, oracleLimit)
	if len(pick) != oracleLimit {
		t.Fatalf("sample has %d ops, want %d", len(pick), oracleLimit)
	}
	apps := map[string]bool{}
	for _, i := range pick {
		apps[runs[i].op.App] = true
	}
	if len(apps) != len(mix) {
		t.Fatalf("sample covers %d of %d applications", len(apps), len(mix))
	}
}
