package sfi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"encore/internal/interp"
)

// Ledger type tags: every line of a campaign ledger is a JSON object
// whose "type" field selects the payload shape.
const (
	// traceCampaign tags the per-campaign header record (CampaignMeta).
	traceCampaign = "campaign"
	// traceTrial tags one per-trial ledger record (TrialRecord).
	traceTrial = "trial"
)

// RegionInfo describes one compiled region to the trial ledger: identity,
// idempotence class, and the analytical prediction inputs (execution-time
// share, mean instance length, and the Equation-7 α at the campaign's
// Dmax). It is the join key between a campaign's measured outcomes and
// the model's predictions; cmd/encore-sfi builds these rows from
// core.Result.RegionCoverages.
type RegionInfo struct {
	ID          int     `json:"id"`
	Fn          string  `json:"fn"`
	Header      string  `json:"header"`
	Class       string  `json:"class"`
	Selected    bool    `json:"selected"`
	DynFrac     float64 `json:"dyn_frac"`
	InstanceLen float64 `json:"instance_len"`
	Alpha       float64 `json:"alpha"`
	// Hash is the region's content hash (core.RegionCoverage.Hash): a
	// digest of the instrumented instructions the region spans. Two
	// compiles of a module produce the same hash for a region exactly
	// when its code is unchanged, which is the join key FastFlip-style
	// result reuse (CampaignConfig.Prior) composes prior campaigns on.
	// Empty when the producer predates content hashing.
	Hash string `json:"hash,omitempty"`
}

// CampaignMeta is the header record of one campaign's trace: the
// configuration that makes the trial stream reproducible (seed, Dmax,
// bits), the golden run's dynamic length, the app-level analytical
// coverage prediction, and the per-region prediction table the report
// layer joins trials against.
type CampaignMeta struct {
	App          string       `json:"app"`
	Trials       int          `json:"trials"`
	Seed         uint64       `json:"seed"`
	Dmax         int64        `json:"dmax"`
	Bits         int          `json:"bits"`
	GoldenInstrs int64        `json:"golden_instrs"`
	PredCoverage float64      `json:"pred_coverage"`
	Regions      []RegionInfo `json:"regions"`
}

// TrialRecord is one campaign trial's ledger entry: where the fault
// landed (site, owning region instance, idempotence class), how far it
// propagated before the detector fired, what the rollback cost (distance
// discarded, frames unwound, re-executed instructions), and the final
// outcome. Records are emitted in trial order and are deterministic
// given the campaign seed, so a trace is byte-identical across runs.
type TrialRecord struct {
	Trial    int   `json:"trial"`
	InjectAt int64 `json:"inject_at"`
	Bit      int   `json:"bit"`
	Latency  int64 `json:"latency"` // sampled detection latency (instructions)

	Injected bool   `json:"injected"`
	Fn       string `json:"fn"`        // function containing the injection site
	Block    string `json:"block"`     // basic block of the injection site
	Index    int    `json:"index"`     // instruction index within the block
	Count    int64  `json:"count"`     // dynamic instruction count at injection
	IsMem    bool   `json:"is_mem"`    // a stored memory word was corrupted
	MemAddr  int64  `json:"mem_addr"`  // corrupted address when is_mem
	Reg      int    `json:"reg"`       // corrupted register otherwise
	RegionID int    `json:"region_id"` // region owning the site (-1 unprotected)
	Instance int64  `json:"instance"`  // region instance sequence number (0 none)
	Class    string `json:"class"`     // idempotence class of the owning region

	Detected       bool  `json:"detected"`
	DetectCount    int64 `json:"detect_count"`     // dynamic count at detection
	Propagated     int64 `json:"propagated"`       // instructions between injection and detection
	DetectRegionID int   `json:"detect_region_id"` // region live at detection (-1 none)

	RolledBack       bool  `json:"rolled_back"`
	SameInstance     bool  `json:"same_instance"`     // rollback reached the struck instance
	TargetRegion     int   `json:"target_region"`     // region rolled back to (-1 none)
	Unwound          int   `json:"unwound"`           // call frames discarded by the rollback
	RollbackDistance int64 `json:"rollback_distance"` // instructions discarded by the rollback
	ReExecInstrs     int64 `json:"reexec_instrs"`     // extra instructions vs the golden run

	Outcome Outcome `json:"outcome"`
}

// campaignEnvelope is the JSONL wire form of a campaign header line.
type campaignEnvelope struct {
	Type string `json:"type"` // traceCampaign
	CampaignMeta
}

// trialEnvelope is the JSONL wire form of one trial line.
type trialEnvelope struct {
	Type string `json:"type"` // traceTrial
	TrialRecord
}

// ledgerScanner reads a JSONL ledger line by line. A campaign header
// carries the whole region table, so lines may run to 16 MiB.
func ledgerScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	return sc
}

// ReplayLedger streams a JSONL ledger of any number of campaigns through
// stats sinks with the calls a live campaign makes (CampaignConfig.Stats):
// each header line asks next for a fresh sink and hands it
// ObserveCampaign, and each trial line hands that sink ObserveTrial. It
// holds one line at a time and skips blank ones. A line that is not JSON,
// has an unknown type or does not decode as it, or a trial before any
// header, stops the replay with an error naming the 1-based line; the
// sinks have by then observed every line before it.
func ReplayLedger(r io.Reader, next func() StatsSink) error {
	sc := ledgerScanner(r)
	var sink StatsSink
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return fmt.Errorf("sfi: ledger line %d: %w", line, err)
		}
		switch tag.Type {
		case traceCampaign:
			var env campaignEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				return fmt.Errorf("sfi: ledger line %d: campaign header: %w", line, err)
			}
			sink = next()
			sink.ObserveCampaign(env.CampaignMeta)
		case traceTrial:
			if sink == nil {
				return fmt.Errorf("sfi: ledger line %d: trial record before any campaign header", line)
			}
			var env trialEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				return fmt.Errorf("sfi: ledger line %d: trial record: %w", line, err)
			}
			sink.ObserveTrial(env.TrialRecord)
		default:
			return fmt.Errorf("sfi: ledger line %d: unknown record type %q", line, tag.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sfi: ledger: %w", err)
	}
	return nil
}

// MergeLedgers streams per-shard ledgers of one campaign to w as the
// ledger a single process would have written, holding one line per
// shard. Each shard is one campaign's byte-identical header, then its
// trial lines in ascending trial order, as every shard run writes them.
// The shards are ordered by their first trial, never argument position,
// and their lines copied verbatim, so the merge is permutation-invariant
// and byte-identical to the single-process ledger when the shards cover
// the trial space. Gaps are allowed (adaptive campaigns skip trials);
// a trial index that does not ascend across the output is an error: a
// trial two shards ran, or interleaved or unsorted shards, which no
// producer writes. Headers and first trials are checked before anything
// is written; a later error leaves the lines merged before it in w.
func MergeLedgers(w io.Writer, shards ...io.Reader) error {
	if len(shards) == 0 {
		return errors.New("sfi: merge: no shard ledgers given")
	}
	ms := make([]*mergeShard, len(shards))
	for i, r := range shards {
		ms[i] = &mergeShard{n: i + 1, sc: ledgerScanner(r)}
		if err := ms[i].next(); err != nil {
			return err
		}
		if !bytes.Equal(ms[i].header, ms[0].header) {
			return fmt.Errorf("sfi: merge: shard %d: campaign header differs from shard 1's (shards must come from the same campaign: same app, trials, seed, dmax, bits, and compile)", i+1)
		}
	}
	// A shard without trials sorts last; it adds no line.
	sort.SliceStable(ms, func(a, b int) bool {
		return ms[a].raw != nil && (ms[b].raw == nil || ms[a].trial < ms[b].trial)
	})
	bw := bufio.NewWriter(w)
	bw.Write(ms[0].header)
	bw.WriteByte('\n')
	err := copyTrials(bw, ms)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// copyTrials writes the ordered shards' trial lines, requiring every
// trial index to exceed the one before it.
func copyTrials(bw *bufio.Writer, ms []*mergeShard) error {
	var prev *mergeShard
	last := 0
	for _, s := range ms {
		for s.raw != nil {
			switch {
			case prev == nil || s.trial > last:
			case s.trial == last && s != prev:
				return fmt.Errorf("sfi: merge: trial %d appears in more than one shard (overlapping partition)", s.trial)
			default:
				return fmt.Errorf("sfi: merge: shard %d line %d: trial %d follows trial %d (shards must hold ascending trials and must not interleave)", s.n, s.line, s.trial, last)
			}
			bw.Write(s.raw)
			if err := bw.WriteByte('\n'); err != nil {
				return err // w failed: stop reading the shards
			}
			prev, last = s, s.trial
			if err := s.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeShard is one shard ledger being merged: its header and the
// trial line it holds next.
type mergeShard struct {
	n      int // 1-based argument position
	sc     *bufio.Scanner
	line   int    // lines read so far
	header []byte // the campaign header line
	raw    []byte // the next trial line, nil once the shard is done
	trial  int    // raw's trial index
}

// next reads up to the shard's next trial line, reading the header on
// the way if it has not been read. Blank lines are skipped; anything
// else that is not a trial line after the header is an error.
func (s *mergeShard) next() error {
	for s.sc.Scan() {
		s.line++
		raw := s.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type  string `json:"type"`
			Trial int    `json:"trial"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return fmt.Errorf("sfi: merge: shard %d line %d: %w", s.n, s.line, err)
		}
		switch {
		case probe.Type == traceCampaign && s.header == nil:
			s.header = append([]byte(nil), raw...)
		case probe.Type == traceCampaign:
			return fmt.Errorf("sfi: merge: shard %d line %d: second campaign header (merge takes one campaign per shard)", s.n, s.line)
		case probe.Type == traceTrial && s.header == nil:
			return fmt.Errorf("sfi: merge: shard %d line %d: trial record before the campaign header", s.n, s.line)
		case probe.Type == traceTrial:
			s.raw, s.trial = raw, probe.Trial
			return nil
		default:
			return fmt.Errorf("sfi: merge: shard %d line %d: unknown record type %q", s.n, s.line, probe.Type)
		}
	}
	s.raw = nil
	if err := s.sc.Err(); err != nil {
		return fmt.Errorf("sfi: merge: shard %d: %w", s.n, err)
	}
	if s.header == nil {
		return fmt.Errorf("sfi: merge: shard %d has no campaign header", s.n)
	}
	return nil
}

// classify maps one trial's fault report, run error, and golden-checksum
// match to its Outcome. RunCampaign's counters and the trial ledger both
// derive from this single function so they cannot diverge.
func classify(rep interp.FaultReport, err error, match bool) Outcome {
	switch {
	case !rep.Injected:
		return NotInjected
	case err == interp.ErrDetectedUnrecoverable:
		return DetectedUnrecoverable
	case err != nil:
		return Crashed
	case match:
		if rep.RolledBack {
			return Recovered
		}
		return Benign
	case rep.RolledBack:
		return RecoveredWrong
	default:
		return SilentCorruption
	}
}

// makeRecord assembles one trial's ledger entry from its plan, fault
// report, and classification. goldenInstrs is the fault-free dynamic
// length; finalInstrs the trial run's, so completed runs report the
// re-execution surcharge recovery added. classOf joins the site's owning
// region to its idempotence class.
func makeRecord(t int, plan interp.FaultPlan, rep interp.FaultReport, o Outcome,
	runErr error, goldenInstrs, finalInstrs int64, classOf map[int]string) TrialRecord {
	rec := TrialRecord{
		Trial:    t,
		InjectAt: plan.InjectAt,
		Bit:      int(plan.Bit),
		Latency:  plan.DetectLatency,
		Injected: rep.Injected,
		RegionID: -1,
		Instance: rep.Site.Instance,
		Detected: rep.Detected,

		DetectRegionID: rep.DetectRegionID,
		RolledBack:     rep.RolledBack,
		SameInstance:   rep.SameInstance,
		TargetRegion:   rep.TargetRegion,
		Unwound:        rep.Unwound,
		Outcome:        o,
	}
	if rep.Injected {
		rec.Fn = rep.Site.Fn.Name
		rec.Block = rep.Site.Block.Name
		rec.Index = rep.Site.Index
		rec.Count = rep.Site.Count
		rec.IsMem = rep.Site.IsMem
		rec.MemAddr = rep.Site.MemAddr
		rec.Reg = int(rep.Site.Reg)
		rec.RegionID = rep.Site.RegionID
		rec.Class = classOf[rep.Site.RegionID]
	}
	if rep.Detected {
		rec.DetectCount = rep.DetectCount
		rec.Propagated = rep.DetectCount - rep.Site.Count
		rec.RollbackDistance = rep.RollbackDistance
	}
	if runErr == nil {
		rec.ReExecInstrs = finalInstrs - goldenInstrs
	}
	return rec
}
