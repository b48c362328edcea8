package attrib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"encore/internal/sfi"
	"encore/internal/stats"
)

// MergeTraces merges per-shard JSONL campaign traces into one stream,
// written to w. Each shard must carry the campaign header as its first
// line, and every shard's header must be byte-identical (all shards
// regenerate the full header from the same compile and seed, so any
// difference means the inputs belong to different campaigns — a hard
// error, not something to paper over). Trial lines are kept as raw
// bytes and re-emitted verbatim in trial-index order after the header,
// which makes the merge:
//
//   - byte-identical to the single-process ledger whenever the shards
//     jointly cover the trial space (the single process would have
//     emitted exactly these lines in exactly this order), and
//   - permutation-invariant in its inputs (ordering is by parsed trial
//     index, never by argument position).
//
// Gaps in the trial space are allowed — adaptive campaigns skip
// converged trials by design — but a duplicated trial index is an
// error: the same trial emitted by two shards means the partition was
// wrong, and silently dropping one line would hide it.
func MergeTraces(w io.Writer, shards ...io.Reader) error {
	if len(shards) == 0 {
		return fmt.Errorf("attrib: merge: no shard traces given")
	}
	var (
		header []byte
		trials []rawTrial
	)
	for i, r := range shards {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		line, sawHeader := 0, false
		for sc.Scan() {
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			raw := append([]byte(nil), sc.Bytes()...)
			var probe struct {
				Type  string `json:"type"`
				Trial int    `json:"trial"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil {
				return fmt.Errorf("attrib: merge: shard %d line %d: %w", i+1, line, err)
			}
			switch probe.Type {
			case sfi.TraceCampaign:
				if sawHeader {
					return fmt.Errorf("attrib: merge: shard %d line %d: second campaign header (merge takes one campaign per shard)", i+1, line)
				}
				sawHeader = true
				if header == nil {
					header = raw
				} else if !bytes.Equal(header, raw) {
					return fmt.Errorf("attrib: merge: shard %d: campaign header differs from shard 1's (shards must come from the same campaign: same app, trials, seed, dmax, bits, and compile)", i+1)
				}
			case sfi.TraceTrial:
				if !sawHeader {
					return fmt.Errorf("attrib: merge: shard %d line %d: trial record before the campaign header", i+1, line)
				}
				trials = append(trials, rawTrial{trial: probe.Trial, line: raw})
			default:
				return fmt.Errorf("attrib: merge: shard %d line %d: unknown record type %q", i+1, line, probe.Type)
			}
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("attrib: merge: shard %d: %w", i+1, err)
		}
		if !sawHeader {
			return fmt.Errorf("attrib: merge: shard %d has no campaign header", i+1)
		}
	}
	sort.SliceStable(trials, func(a, b int) bool { return trials[a].trial < trials[b].trial })
	for i := 1; i < len(trials); i++ {
		if trials[i].trial == trials[i-1].trial {
			return fmt.Errorf("attrib: merge: trial %d appears in more than one shard (overlapping partition)", trials[i].trial)
		}
	}
	bw := bufio.NewWriter(w)
	bw.Write(header)
	bw.WriteByte('\n')
	for _, t := range trials {
		bw.Write(t.line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// rawTrial is one trial line held verbatim for re-emission, with just
// enough parsed to order it.
type rawTrial struct {
	trial int
	line  []byte
}

// PriorRegions distills a finished campaign into the per-region tallies
// adaptive stopping reuses (sfi.CampaignConfig.Prior): for every struck
// region with a content hash in the header, how many injected trials
// struck it and how many of those recovered, read off the replayed
// estimator's snapshot. Regions without a hash (pre-hashing ledgers) are
// omitted — without the content key there is no sound way to claim the
// region is unchanged. Rows come back in region-ID order.
func PriorRegions(c *Campaign) []sfi.PriorRegion {
	hashOf := make(map[int]string, len(c.Meta.Regions))
	for _, ri := range c.Meta.Regions {
		if ri.Hash != "" {
			hashOf[ri.ID] = ri.Hash
		}
	}
	var out []sfi.PriorRegion
	for _, r := range stats.Replay(c.Meta, c.Records).Snapshot().Regions {
		if hash, ok := hashOf[r.ID]; ok && r.Struck > 0 {
			out = append(out, sfi.PriorRegion{Hash: hash, Struck: r.Struck, Recovered: r.Recovered})
		}
	}
	return out
}
