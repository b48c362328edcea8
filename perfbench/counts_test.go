package main

import (
	"io"
	"testing"
)

// TestTracedCountsRepeat checks that every count metric of the traced run
// repeats exactly for a seed and moves under another seed. A short op
// prefix keeps the test quick; the counts are exact at any length.
func TestTracedCountsRepeat(t *testing.T) {
	if raceEnabled {
		// The interp counters depend on which pooled machine sfi hands a
		// campaign's trial worker (see NOTES.md), and the race detector's
		// sync.Pool discards pooled objects at random.
		t.Skip("exact interp counts need sync.Pool to keep what it is given")
	}
	saved := tracedOps
	tracedOps = map[string]int{"campaign": 6, "masking": 4, "served": 16}
	defer func() { tracedOps = saved }()
	// Fixed by the balanced op mix rather than by the seed: every served
	// block misses the analysis cache on exactly its inline quarter.
	seedFree := map[string]bool{"served.core.cache_miss_ratio": true}

	counts := func(seed uint64) map[string]float64 {
		out := map[string]float64{}
		for _, w := range []string{"campaign", "masking", "served"} {
			m, _, failed, err := tracedWorkload(w, seed, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 {
				t.Fatalf("%s: %d ops failed", w, failed)
			}
			for k, v := range m {
				if v.Unit == "count" {
					out[w+"."+k] = v.Value
				}
			}
		}
		return out
	}
	a, b, c := counts(1), counts(1), counts(2)
	if len(a) == 0 {
		t.Fatal("the traced run reported no count metrics")
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v under the same seed", k, v, b[k])
		}
		if c[k] == v && !seedFree[k] {
			t.Errorf("%s: %v under seeds 1 and 2", k, v)
		}
	}
}
