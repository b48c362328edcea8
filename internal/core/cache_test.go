package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"encore/internal/workload"
)

// TestSnapshotCacheSingleAnalyze checks that concurrent Gets for one key
// run the analyze callback exactly once and all receive the same
// snapshot, while a different γ/budget (excluded from the key) still hits
// the same entry and a different Pmin misses.
func TestSnapshotCacheSingleAnalyze(t *testing.T) {
	sp, err := workload.ByName("rawcaudio")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSnapshotCache()
	cfg := DefaultConfig()
	var runs atomic.Int32
	get := func(c Config) (*AnalysisSnapshot, error) {
		return cache.Get("workload:rawcaudio", c, func() (*Analysis, error) {
			runs.Add(1)
			return Analyze(sp.Build().Mod, c)
		})
	}

	var wg sync.WaitGroup
	snaps := make([]*AnalysisSnapshot, 8)
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Gamma = float64(i) // finalization knob: must not split the key
			s, err := get(c)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[i] = s
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("analyze ran %d times for one key, want 1", got)
	}
	for i, s := range snaps {
		if s != snaps[0] {
			t.Fatalf("Get %d returned a different snapshot pointer", i)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1", cache.Len())
	}

	c2 := cfg
	c2.Pmin, c2.UsePmin = 0.05, true
	if _, err := get(c2); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("analyze ran %d times after a Pmin variant, want 2", got)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d keys after a Pmin variant, want 2", cache.Len())
	}
}

// TestSnapshotCacheReplayMatchesFreshCompile locks the service-path
// compile shape: replaying a cached snapshot onto a fresh build and
// finalizing produces the same result as a fresh full Compile.
func TestSnapshotCacheReplayMatchesFreshCompile(t *testing.T) {
	sp, err := workload.ByName("rawdaudio")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	fresh, err := Compile(sp.Build().Mod, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewSnapshotCache()
	snap, err := cache.Get("workload:rawdaudio", cfg, func() (*Analysis, error) {
		return Analyze(sp.Build().Mod, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.Replay(sp.Build().Mod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Finalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredOverhead != fresh.MeasuredOverhead ||
		res.TotalInstrs != fresh.TotalInstrs ||
		res.CkptRegBytes != fresh.CkptRegBytes ||
		res.CkptMemBytes != fresh.CkptMemBytes ||
		len(res.Regions) != len(fresh.Regions) {
		t.Fatalf("replayed finalize diverged from fresh compile:\nreplay: %+v instrs=%d\nfresh:  %+v instrs=%d",
			res.MeasuredOverhead, res.TotalInstrs, fresh.MeasuredOverhead, fresh.TotalInstrs)
	}
}

// TestSnapshotCacheCachesErrors checks a failed analyze is memoized.
func TestSnapshotCacheCachesErrors(t *testing.T) {
	cache := NewSnapshotCache()
	boom := errors.New("boom")
	runs := 0
	for i := 0; i < 3; i++ {
		_, err := cache.Get("bad", DefaultConfig(), func() (*Analysis, error) {
			runs++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Get error = %v, want boom", err)
		}
	}
	if runs != 1 {
		t.Fatalf("failed analyze ran %d times, want 1", runs)
	}
}

// TestSnapshotCachePanicBecomesError checks that a panicking analyze is
// cached as an error: the first Get re-panics with the original value,
// and later Gets return the error without running analyze again instead
// of a nil snapshot with a nil error.
func TestSnapshotCachePanicBecomesError(t *testing.T) {
	cache := NewSnapshotCache()
	runs := 0
	get := func() (snap *AnalysisSnapshot, panicked any, err error) {
		defer func() { panicked = recover() }()
		snap, err = cache.Get("panics", DefaultConfig(), func() (*Analysis, error) {
			runs++
			panic("analyze blew up")
		})
		return snap, nil, err
	}
	if _, p, _ := get(); p != "analyze blew up" {
		t.Fatalf("first Get recovered %v, want the analyze panic", p)
	}
	for i := 0; i < 2; i++ {
		snap, p, err := get()
		if p != nil || snap != nil || err == nil || !strings.Contains(err.Error(), "analyze blew up") {
			t.Fatalf("Get after the panic = (%v, %v, panic %v), want the cached panic as an error", snap, err, p)
		}
	}
	if runs != 1 {
		t.Fatalf("panicking analyze ran %d times, want 1", runs)
	}
}
