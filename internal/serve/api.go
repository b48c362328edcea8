package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// SubmitRequest is the JSON body of POST /v1/campaigns. Exactly one of
// Workload or Module selects the program; every other field is optional
// and defaults to the batch encore-sfi flag defaults (trials 300, seed 1,
// dmax 100) and core.DefaultConfig's analysis knobs, so an empty-knob
// served campaign produces the same ledger as a bare `encore-sfi -app X
// -trace`. Pointer fields distinguish "omitted" from an explicit zero
// (dmax 0 and γ 0 are meaningful configurations).
type SubmitRequest struct {
	// Workload names a built-in benchmark (see workload.Names).
	Workload string `json:"workload,omitempty"`
	// Module is an inline textual IR module (ir.Parse syntax),
	// alternative to Workload.
	Module string `json:"module,omitempty"`
	// Outputs names the globals whose final contents define program
	// output for an inline Module; golden-run comparison checksums them.
	Outputs []string `json:"outputs,omitempty"`
	// App overrides the ledger header's app label for inline modules
	// (defaults to module-<hash>; Workload campaigns always use the
	// workload name).
	App string `json:"app,omitempty"`

	// Trials is the campaign length (default 300).
	Trials int `json:"trials,omitempty"`
	// Seed starts the campaign's deterministic fault-plan PRNG; together
	// with Trials it is the request's seed range (default 1).
	Seed *uint64 `json:"seed,omitempty"`
	// Dmax is the maximum detection latency in instructions (default 100).
	Dmax *int64 `json:"dmax,omitempty"`
	// Bits is the datapath width faults flip within, at most 64
	// (default 32).
	Bits int `json:"bits,omitempty"`

	// Gamma is the Coverage/Cost instrumentation floor γ (§3.4.2).
	Gamma *float64 `json:"gamma,omitempty"`
	// Eta is the region-merge threshold η (Equation 5).
	Eta *float64 `json:"eta,omitempty"`
	// Pmin prunes blocks below this execution probability (§3.4.1).
	Pmin *float64 `json:"pmin,omitempty"`
	// Budget caps the estimated fractional overhead (default 0.20).
	Budget *float64 `json:"budget,omitempty"`
	// Engine selects the interpreter engine: fast or ref.
	// Ledgers are engine-invariant.
	Engine string `json:"engine,omitempty"`
	// Workers bounds trial parallelism (0 = server default), capped at
	// runtime.GOMAXPROCS(0). Ledgers are worker-count-invariant.
	Workers int `json:"workers,omitempty"`
	// Checkpoints is the golden-run ladder target for
	// fork-from-checkpoint trials (sfi.CampaignConfig.Checkpoints: k to
	// 2k−1 rungs on a long run). Omitted = the server default;
	// explicit 0 disables the ladder (every trial replays the full
	// golden prefix); negative is rejected. Ledgers are
	// checkpoint-count-invariant.
	Checkpoints *int `json:"checkpoints,omitempty"`

	// Adaptive enables variance-aware adaptive stopping (sfi.Stopper):
	// trials aimed at regions whose recovery-rate Wilson interval has
	// converged are skipped, and the ledger carries only executed trials.
	// A positive AdaptiveCI or AdaptiveRound implies Adaptive.
	Adaptive bool `json:"adaptive,omitempty"`
	// AdaptiveCI is the convergence half-width target (0 = the server's
	// default, then sfi's DefaultTargetCI). Negative is rejected.
	AdaptiveCI float64 `json:"adaptive_ci,omitempty"`
	// AdaptiveRound is the stopping-decision round size in trials
	// (0 = deterministic heuristic from the trial count). Negative is
	// rejected.
	AdaptiveRound int `json:"adaptive_round,omitempty"`
}

// CampaignStatus is the JSON shape of one campaign in status, submit,
// cancel, and list responses.
type CampaignStatus struct {
	// ID is the server-assigned campaign identifier.
	ID string `json:"id"`
	// Tenant is the submitting tenant (X-Encore-Tenant, or "default").
	Tenant string `json:"tenant"`
	// App is the ledger header's app label.
	App string `json:"app"`
	// State is one of StateRunning, StateDone, StateCanceled, StateFailed.
	State string `json:"state"`
	// Trials is the requested campaign length.
	Trials int `json:"trials"`
	// Seed is the campaign's PRNG seed.
	Seed uint64 `json:"seed"`
	// Dmax is the campaign's maximum detection latency.
	Dmax int64 `json:"dmax"`
	// Engine is the resolved interpreter engine.
	Engine string `json:"engine"`
	// Executed counts trials that ran (settled campaigns only; equals
	// Trials unless canceled).
	Executed int `json:"executed"`
	// LedgerRecords counts trial records emitted to the ledger so far.
	LedgerRecords int `json:"ledger_records"`
	// Error describes a failed or canceled campaign.
	Error string `json:"error,omitempty"`
}

// ResultResponse is the JSON body of GET /v1/campaigns/{id}/result: the
// final status plus the outcome distribution.
type ResultResponse struct {
	CampaignStatus
	// Counts maps outcome names (recovered, benign, …) to trial counts.
	Counts map[string]int `json:"counts"`
	// SameInstance counts recovered trials whose rollback reached the
	// struck region instance.
	SameInstance int `json:"same_instance"`
	// RecoveredRate is the survivable fraction of injected trials.
	RecoveredRate float64 `json:"recovered_rate"`
	// PredCoverage is the analytical coverage prediction from the ledger
	// header.
	PredCoverage float64 `json:"pred_coverage"`
	// Skipped counts planned trials adaptive stopping elided (zero for
	// non-adaptive campaigns).
	Skipped int `json:"skipped,omitempty"`
}

// APIError is the JSON body of every non-2xx response.
type APIError struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the machine-readable class: bad-request, too-large,
	// not-found, not-finished, quota, draining.
	Code string `json:"code"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 responses.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// writeError answers one request with an APIError, setting Retry-After
// when a hint is given.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	sec := 0
	if retryAfter > 0 {
		sec = int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(APIError{Error: msg, Code: code, RetryAfterSec: sec})
}

// tenantOf resolves the request's tenant from the X-Encore-Tenant header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Encore-Tenant"); t != "" {
		return t
	}
	return "default"
}

// campaignSpec is a validated, defaulted SubmitRequest: everything the
// runner needs, including the analysis-cache key and a build closure
// returning a fresh module per call (instrumentation mutates in place).
type campaignSpec struct {
	app    string
	source string // SnapshotCache key
	build  func() (*ir.Module, []*ir.Global, error)

	trials      int
	seed        uint64
	dmax        int64
	bits        int
	workers     int
	checkpoints int
	stop        *sfi.Stopper
	ccfg        core.Config
}

// normalize validates the request and applies the encore-sfi defaults.
func (r *SubmitRequest) normalize(cfg Config) (campaignSpec, error) {
	sp := campaignSpec{
		trials: r.Trials, seed: 1, dmax: 100, bits: r.Bits,
		// More workers than processors only add leased machines.
		workers: min(r.Workers, runtime.GOMAXPROCS(0)),
	}
	if sp.trials == 0 {
		sp.trials = 300
	}
	if sp.trials < 0 {
		return sp, fmt.Errorf("trials %d is negative", sp.trials)
	}
	if r.Seed != nil {
		sp.seed = *r.Seed
	}
	if r.Dmax != nil {
		sp.dmax = *r.Dmax
	}
	if sp.dmax < 0 {
		return sp, fmt.Errorf("dmax %d is negative: detection latency is sampled uniformly from [0, dmax]", sp.dmax)
	}
	if sp.bits < 0 || sp.bits > 64 {
		return sp, fmt.Errorf("bits %d outside [0, 64] (0 selects 32)", sp.bits)
	}
	if sp.workers == 0 {
		sp.workers = cfg.Workers
	}
	sp.checkpoints = cfg.Checkpoints
	if r.Checkpoints != nil {
		if *r.Checkpoints < 0 {
			return sp, fmt.Errorf("checkpoints %d is negative (0 disables the snapshot ladder)", *r.Checkpoints)
		}
		sp.checkpoints = *r.Checkpoints
	}
	if r.AdaptiveCI < 0 {
		return sp, fmt.Errorf("adaptive_ci %g is negative", r.AdaptiveCI)
	}
	if r.AdaptiveRound < 0 {
		return sp, fmt.Errorf("adaptive_round %d is negative", r.AdaptiveRound)
	}
	if r.Adaptive || r.AdaptiveCI > 0 || r.AdaptiveRound > 0 {
		target := r.AdaptiveCI
		if target == 0 {
			target = cfg.AdaptiveCI
		}
		sp.stop = &sfi.Stopper{TargetCI: target, Round: r.AdaptiveRound}
	}

	ccfg := core.DefaultConfig()
	if r.Gamma != nil {
		ccfg.Gamma = *r.Gamma
	}
	if r.Eta != nil {
		ccfg.Eta = *r.Eta
	}
	if r.Pmin != nil {
		ccfg.Pmin, ccfg.UsePmin = *r.Pmin, true
	}
	if r.Budget != nil {
		ccfg.Budget = *r.Budget
	}
	eng := cfg.Engine
	if r.Engine != "" {
		var err error
		if eng, err = interp.ParseEngine(r.Engine); err != nil {
			return sp, err
		}
	}
	ccfg.Interp.Engine = eng
	sp.ccfg = ccfg

	switch {
	case r.Workload != "" && r.Module != "":
		return sp, fmt.Errorf("workload and module are mutually exclusive")
	case r.Workload != "":
		w, err := workload.ByName(r.Workload)
		if err != nil {
			return sp, err
		}
		sp.app = w.Name
		sp.source = "workload:" + w.Name
		sp.build = func() (*ir.Module, []*ir.Global, error) {
			a := w.Build()
			return a.Mod, a.Outputs, nil
		}
	case r.Module != "":
		sum := sha256.Sum256([]byte(r.Module))
		sp.app = r.App
		if sp.app == "" {
			sp.app = "module-" + hex.EncodeToString(sum[:4])
		}
		sp.source = "module:" + hex.EncodeToString(sum[:])
		src, outs := r.Module, r.Outputs
		sp.build = func() (*ir.Module, []*ir.Global, error) {
			mod, err := ir.Parse(src)
			if err != nil {
				return nil, nil, err
			}
			gs := make([]*ir.Global, 0, len(outs))
			for _, name := range outs {
				g := globalByName(mod, name)
				if g == nil {
					return nil, nil, fmt.Errorf("unknown output global %q", name)
				}
				gs = append(gs, g)
			}
			return mod, gs, nil
		}
		// Validate the module and its output names at submit time so a
		// bad request answers 400 instead of a failed campaign.
		if _, _, err := sp.build(); err != nil {
			return sp, err
		}
	default:
		return sp, fmt.Errorf("one of workload or module is required")
	}
	return sp, nil
}

func globalByName(mod *ir.Module, name string) *ir.Global {
	for _, g := range mod.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// RegionTable converts a compile result's per-region coverage rows into
// the ledger's prediction table. It is the single join every ledger
// producer uses — cmd/encore-sfi's batch traces, the daemon's served
// campaigns, and the experiments harness — so served headers match batch
// headers byte for byte.
func RegionTable(res *core.Result, dmax int64) []sfi.RegionInfo {
	var out []sfi.RegionInfo
	for _, rc := range res.RegionCoverages(float64(dmax)) {
		out = append(out, sfi.RegionInfo{
			ID: rc.ID, Fn: rc.Fn, Header: rc.Header, Class: rc.Class.String(),
			Selected: rc.Selected, DynFrac: rc.DynFrac,
			InstanceLen: rc.InstanceLen, Alpha: rc.Alpha, Hash: rc.Hash,
		})
	}
	return out
}
