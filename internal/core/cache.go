// Keyed analysis memoization: one SnapshotCache entry per (source,
// analysis-stage configuration) pair, shared by the experiments harness
// and the campaign daemon (internal/serve). Snapshots are immutable and
// module-independent, so one cached Analyze serves every γ/budget
// finalization of every concurrent consumer — the FastFlip-style reuse
// seam the sweep and service layers both build on.
package core

import (
	"fmt"
	"sync"

	"encore/internal/alias"
	"encore/internal/interp"
)

// SnapshotCache memoizes AnalysisSnapshots by a caller-chosen source
// identity (a workload name, a content hash of an inline module) plus the
// analysis-stage knobs of a Config (Pmin, UsePmin, Eta, AliasMode,
// Optimize, Interp.Engine — γ and the budget only matter to Finalize and
// are deliberately excluded). Each key's analysis runs exactly once even
// under concurrent Get calls; later callers block on the first. The zero
// value is not usable; call NewSnapshotCache.
type SnapshotCache struct {
	mu sync.Mutex
	m  map[snapshotKey]*snapshotEntry
}

// snapshotKey is the memoization identity: the source plus every Config
// field Analyze consults (Workers is a pure throughput knob and Obs a
// reporting sink; neither affects results).
type snapshotKey struct {
	source    string
	pmin      float64
	usePmin   bool
	eta       float64
	aliasMode alias.Mode
	optimize  bool
	engine    interp.Engine
}

type snapshotEntry struct {
	once sync.Once
	snap *AnalysisSnapshot
	err  error
}

// NewSnapshotCache returns an empty cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{m: map[snapshotKey]*snapshotEntry{}}
}

// Get returns the memoized snapshot for source under cfg's analysis-stage
// knobs, invoking analyze exactly once per key to produce it. analyze
// must run Analyze over a fresh build of the source under (an Obs/Profile
// variation of) the same cfg; Get snapshots its result. A failed analyze
// is cached too — a deterministically broken source should not re-run its
// pipeline per request. So is a panicking one: its panic becomes the
// entry's error, returned by every later Get, before Get re-panics with
// the original value.
func (c *SnapshotCache) Get(source string, cfg Config, analyze func() (*Analysis, error)) (*AnalysisSnapshot, error) {
	key := snapshotKey{
		source:    source,
		pmin:      cfg.Pmin,
		usePmin:   cfg.UsePmin,
		eta:       cfg.Eta,
		aliasMode: cfg.AliasMode,
		optimize:  cfg.Optimize,
		engine:    cfg.Interp.Engine,
	}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &snapshotEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("core: analysis panicked: %v", p)
				panic(p)
			}
		}()
		a, err := analyze()
		if err != nil {
			e.err = err
			return
		}
		e.snap, e.err = a.Snapshot()
	})
	return e.snap, e.err
}

// Len reports the number of cached keys (for tests and metrics).
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
