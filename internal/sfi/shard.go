package sfi

import (
	"fmt"
	"strconv"
	"strings"
)

// ShardRange names shard Index of a Count-way partition of a campaign's
// trial space. The range it owns follows from the campaign's own trial
// count (Bounds), and every fault plan is a pure function of (seed,
// trial), so a shard's ledger records are byte-identical to the
// corresponding lines of a single-process run.
type ShardRange struct {
	// Index is the 1-based shard number, in [1, Count].
	Index int
	// Count is the total number of shards in the partition.
	Count int
}

// Bounds returns the contiguous, half-open trial range [lo, hi) the shard
// owns in a campaign of the given trial count: [(Index−1)·trials/Count,
// Index·trials/Count). The Count shards of a partition tile [0, trials)
// exactly, in index order; with more shards than trials some are empty.
func (sh ShardRange) Bounds(trials int) (lo, hi int) {
	return (sh.Index - 1) * trials / sh.Count, sh.Index * trials / sh.Count
}

// ParseShard parses a -shard flag value of the form "i/K" (1-based
// shard i of K) and validates it: both parts must be positive integers
// with i <= K. The zero flag ("", the default) parses to (0, 0, nil),
// meaning "no sharding".
func ParseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("sfi: shard %q: want i/K (e.g. 2/4)", s)
	}
	index, err = strconv.Atoi(strings.TrimSpace(lhs))
	if err != nil {
		return 0, 0, fmt.Errorf("sfi: shard %q: bad index: %v", s, err)
	}
	count, err = strconv.Atoi(strings.TrimSpace(rhs))
	if err != nil {
		return 0, 0, fmt.Errorf("sfi: shard %q: bad count: %v", s, err)
	}
	if count < 1 {
		return 0, 0, fmt.Errorf("sfi: shard %q: count %d (want >= 1)", s, count)
	}
	if index < 1 || index > count {
		return 0, 0, fmt.Errorf("sfi: shard %q: index %d out of range [1, %d]", s, index, count)
	}
	return index, count, nil
}
