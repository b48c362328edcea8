package serve

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"encore/internal/alias"
	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/obs"
	"encore/internal/sfi"
)

// The prepared-campaign cache's fixed sizes. Nothing here is settable.
const (
	// preparedBudget bounds the bytes the cache charges for its entries;
	// past it, least-recently-used entries are evicted.
	preparedBudget = 16 << 20
	// preparedEntryBytes is the fixed charge per entry for the module,
	// decoded program and compile result it holds beside the ladder, so
	// ladder-free and failed entries count against the budget too.
	preparedEntryBytes = 64 << 10
	// preparedSeen bounds the set of keys seen once; it is cleared when
	// full.
	preparedSeen = 1024
)

// How a campaign obtained its golden run, as campaign_settled's golden
// field reports it.
const (
	goldenFirst = "first" // first request of its key: prepared, not cached
	goldenMiss  = "miss"  // the key's second request admitted it: prepared and cached
	goldenHit   = "hit"   // served from the cache
)

// preparedKey identifies one prepared campaign: the source, every
// analysis and finalize knob, the output names, the engine and the
// checkpoint target — everything the compile and the golden run read.
// Seed, trials, dmax, bits, workers and the adaptive knobs are not in
// it: they only shape the trials run on the golden run.
type preparedKey struct {
	source      string
	outputs     string // inline module output names, NUL-separated
	pmin        float64
	usePmin     bool
	eta         float64
	aliasMode   alias.Mode
	optimize    bool
	gamma       float64
	budget      float64
	engine      interp.Engine
	checkpoints int
}

func newPreparedKey(source string, outputs []string, ccfg core.Config, checkpoints int) preparedKey {
	return preparedKey{
		source: source, outputs: strings.Join(outputs, "\x00"),
		pmin: ccfg.Pmin, usePmin: ccfg.UsePmin, eta: ccfg.Eta,
		aliasMode: ccfg.AliasMode, optimize: ccfg.Optimize,
		gamma: ccfg.Gamma, budget: ccfg.Budget,
		engine: ccfg.Interp.Engine, checkpoints: checkpoints,
	}
}

// preparedFunc compiles a campaign's source and runs its golden run.
type preparedFunc func() (*core.Result, *sfi.Golden, error)

// prepared is one cache entry: a compile result and its golden run, or
// the error preparing them met, filled once.
type prepared struct {
	once  sync.Once
	res   *core.Result
	gold  *sfi.Golden
	err   error
	key   preparedKey
	bytes int64         // charged against the budget
	elem  *list.Element // LRU position; nil once evicted
}

// fill runs prep into e. A panicking prep leaves its panic as e's error
// before the panic goes on.
func (e *prepared) fill(prep preparedFunc) {
	defer func() {
		if p := recover(); p != nil {
			e.err = fmt.Errorf("prepare panicked: %v", p)
			panic(p)
		}
	}()
	e.res, e.gold, e.err = prep()
}

// preparedCache holds prepared campaigns between the analysis cache and
// the trial scheduler, so a campaign whose key is cached skips build,
// Replay, Instrument, Predecode and the golden run. A key is admitted on
// its second request: the first only marks it seen and prepares for
// itself, so one-shot keys never take cache space. A failed prepare is
// admitted at once, as its key's error. Entries cost their ladder's
// footprint plus preparedEntryBytes, and least-recently-used entries
// are evicted past the byte budget. Concurrent requests of an admitted
// key prepare it once; the rest wait for that prepare.
type preparedCache struct {
	budget int64 // preparedBudget; tests lower it

	mu      sync.Mutex
	seen    map[preparedKey]struct{}
	entries map[preparedKey]*prepared
	lru     list.List // of *prepared, most recently used first
	bytes   int64

	hits, misses, evictions *obs.Counter
	gauge                   *obs.Gauge
}

func newPreparedCache(reg *obs.Registry) *preparedCache {
	return &preparedCache{
		budget:    preparedBudget,
		seen:      map[preparedKey]struct{}{},
		entries:   map[preparedKey]*prepared{},
		hits:      reg.Counter("serve.prepared.hits"),
		misses:    reg.Counter("serve.prepared.misses"),
		evictions: reg.Counter("serve.prepared.evictions"),
		gauge:     reg.Gauge("serve.prepared.bytes"),
	}
}

// get returns key's compile result and golden run, and how it got them
// (goldenFirst, goldenMiss or goldenHit). prep runs only when nothing
// cached or in flight serves the key.
func (c *preparedCache) get(key preparedKey, prep preparedFunc) (*core.Result, *sfi.Golden, string, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		if _, ok := c.seen[key]; !ok {
			if len(c.seen) >= preparedSeen {
				clear(c.seen)
			}
			c.seen[key] = struct{}{}
			c.mu.Unlock()
			return c.first(key, prep)
		}
		e = c.admit(key)
	} else {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()

	ran := false
	e.once.Do(func() {
		ran = true
		c.misses.Inc()
		e.fill(prep)
	})
	if !ran {
		c.hits.Inc()
		return e.res, e.gold, goldenHit, e.err
	}
	if e.err == nil {
		c.mu.Lock()
		c.charge(e, e.gold.Footprint())
		c.mu.Unlock()
	}
	return e.res, e.gold, goldenMiss, e.err
}

// first prepares the first request of key without caching the result,
// unless preparing fails: the error is admitted as the key's entry.
func (c *preparedCache) first(key preparedKey, prep preparedFunc) (*core.Result, *sfi.Golden, string, error) {
	e := &prepared{}
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == nil {
				f := c.admit(key)
				f.once.Do(func() { f.err = e.err })
			}
			c.mu.Unlock()
		}
	}()
	e.fill(prep)
	return e.res, e.gold, goldenFirst, e.err
}

// admit adds an empty entry for key at the front of the LRU list,
// charged its fixed cost. c.mu is held.
func (c *preparedCache) admit(key preparedKey) *prepared {
	e := &prepared{key: key}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.charge(e, preparedEntryBytes)
	return e
}

// charge adds n bytes to e's cost, unless e was evicted meanwhile, and
// evicts least-recently-used entries while the cache is over budget.
// c.mu is held.
func (c *preparedCache) charge(e *prepared, n int64) {
	if e.elem == nil {
		return
	}
	e.bytes += n
	c.bytes += n
	for c.bytes > c.budget && c.lru.Len() > 0 {
		old := c.lru.Remove(c.lru.Back()).(*prepared)
		old.elem = nil
		delete(c.entries, old.key)
		c.bytes -= old.bytes
		c.evictions.Inc()
	}
	c.gauge.Set(c.bytes)
}
