package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// ledgerOf reads a campaign's full ledger.
func ledgerOf(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/campaigns/" + id + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// settledGolden returns each campaign_settled event's golden field by
// campaign ID.
func settledGolden(t *testing.T, log string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(log, "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if v["event"] != "campaign_settled" {
			continue
		}
		how, _ := v["golden"].(string)
		if _, ok := v["golden_ms"].(float64); !ok {
			t.Errorf("campaign_settled %v has no golden_ms", v["campaign"])
		}
		out[v["campaign"].(string)] = how
	}
	return out
}

// spanCounts returns the registry's span counts by path.
func spanCounts(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, sp := range reg.Snapshot().Spans {
		out[sp.Name] = sp.Count
	}
	return out
}

// preparedCounters reads the prepared-campaign cache's metrics.
func preparedCounters(reg *obs.Registry) [4]int64 {
	return [4]int64{
		reg.Counter("serve.prepared.hits").Value(), reg.Counter("serve.prepared.misses").Value(),
		reg.Counter("serve.prepared.evictions").Value(), reg.Gauge("serve.prepared.bytes").Value(),
	}
}

// batchFootprint is the ladder footprint of a batch compile of app at
// sfi.DefaultCheckpoints: the bytes a cached entry of it charges beyond
// preparedEntryBytes.
func batchFootprint(t *testing.T, app string) int64 {
	t.Helper()
	sp, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	art := sp.Build()
	ccfg := core.DefaultConfig()
	ccfg.Obs = obs.NewRegistry()
	res, err := core.Compile(art.Mod, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sfi.Prepare(res.Mod, res.Metas, art.Outputs, interp.EngineFast, sfi.DefaultCheckpoints, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return g.Footprint()
}

// inlineDemo is a two-global inline module; its golden run is far below
// the ladder floor, so a cached entry of it charges preparedEntryBytes.
const inlineDemo = `module demo
global data[8]
global aux[4]
func main(params=0 regs=3 frame=0):
entry#0:
  r0 = global #0
  r1 = const 7
  store [r0+3] = r1
  r2 = load [r0+3]
  ret r2
`

// TestPreparedCacheCounters submits a fixed request sequence one at a
// time and checks exactly how each campaign got its golden run: a key's
// first request prepares without caching, its second admits it, and
// later ones hit whatever their seed, dmax or workers; every other
// knob, the output names, the engine and the checkpoint target make a
// new key. The cache counters, the bytes gauge, the compile and golden
// span counts, the settle log and every default-knob ledger must agree.
func TestPreparedCacheCounters(t *testing.T) {
	reg := obs.NewRegistry()
	logw := newSyncBuffer()
	ts := httptest.NewServer(NewServer(Config{Obs: reg, Log: logw, Checkpoints: sfi.DefaultCheckpoints}))
	defer ts.Close()

	inline := func(seed int, outs ...string) string {
		raw, _ := json.Marshal(SubmitRequest{Module: inlineDemo, Outputs: outs, Trials: 6, Seed: ptr(uint64(seed))})
		return string(raw)
	}
	steps := []struct {
		body   string
		golden string
		seed   uint64 // > 0: the ledger must equal the batch ledger at this seed
		dmax   int64
	}{
		{`{"workload":"rawcaudio","trials":6,"seed":1}`, goldenFirst, 1, 100},
		{`{"workload":"rawcaudio","trials":6,"seed":2}`, goldenMiss, 2, 100},
		{`{"workload":"rawcaudio","trials":6,"seed":3,"dmax":10,"workers":1}`, goldenHit, 3, 10},
		{`{"workload":"rawcaudio","trials":6,"seed":4,"gamma":0.5}`, goldenFirst, 0, 0},
		{`{"workload":"rawcaudio","trials":6,"seed":5,"checkpoints":0}`, goldenFirst, 5, 100},
		{`{"workload":"rawcaudio","trials":6,"seed":6,"engine":"ref"}`, goldenFirst, 6, 100},
		{`{"workload":"rawcaudio","trials":6,"seed":7,"adaptive":true}`, goldenHit, 0, 0},
		{inline(1, "data"), goldenFirst, 0, 0},
		{inline(2, "data"), goldenMiss, 0, 0},
		{inline(3, "data", "aux"), goldenFirst, 0, 0},
		{inline(4, "data"), goldenHit, 0, 0},
	}
	var hits, misses, firsts int64
	for i, s := range steps {
		code, st, apiErr, _ := submit(t, ts.URL, "", s.body)
		if code != http.StatusAccepted {
			t.Fatalf("step %d: status %d (%+v)", i, code, apiErr)
		}
		if final := waitState(t, ts.URL, st.ID); final.State != StateDone {
			t.Fatalf("step %d settled %q (%s)", i, final.State, final.Error)
		}
		if s.seed > 0 {
			if got, want := ledgerOf(t, ts.URL, st.ID), batchLedger(t, "rawcaudio", 6, s.seed, s.dmax); !bytes.Equal(got, want) {
				t.Errorf("step %d (%s): served ledger differs from the batch ledger", i, s.golden)
			}
		}
		switch s.golden {
		case goldenHit:
			hits++
		case goldenMiss:
			misses++
		default:
			firsts++
		}
		if got := preparedCounters(reg); got[0] != hits || got[1] != misses || got[2] != 0 {
			t.Fatalf("step %d: hits/misses/evictions %v, want %d/%d/0", i, got[:3], hits, misses)
		}
	}
	if got, want := preparedCounters(reg)[3], 2*preparedEntryBytes+batchFootprint(t, "rawcaudio"); got != want {
		t.Errorf("serve.prepared.bytes = %d, want two entries and the rawcaudio ladder, %d", got, want)
	}
	spans := spanCounts(reg)
	if spans["serve/campaign/compile"] != firsts+misses || spans["serve/campaign/golden"] != firsts+misses {
		t.Errorf("compile/golden spans %d/%d, want %d each: one per prepare",
			spans["serve/campaign/compile"], spans["serve/campaign/golden"], firsts+misses)
	}
	golden := settledGolden(t, logw.String())
	for i, s := range steps {
		if id := fmt.Sprintf("c%06d", i+1); golden[id] != s.golden {
			t.Errorf("step %d: campaign_settled golden %q, want %q", i, golden[id], s.golden)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestPreparedConcurrentHits runs four campaigns with different seeds at
// once on one admitted key (run it under -race): each must hit, and each
// ledger must equal the batch ledger for its seed.
func TestPreparedConcurrentHits(t *testing.T) {
	const (
		app    = "rawcaudio"
		trials = 12
		dmax   = 100
	)
	reg := obs.NewRegistry()
	var arrived sync.WaitGroup
	arrived.Add(4)
	ts := httptest.NewServer(NewServer(Config{
		Obs: reg, Checkpoints: sfi.DefaultCheckpoints,
		// Campaigns 3 to 6 wait for each other, then look the key up and
		// run together.
		Gate: func(ctx context.Context, id string) {
			if id >= "c000003" {
				arrived.Done()
				arrived.Wait()
			}
		},
	}))
	defer ts.Close()
	body := func(seed uint64) string {
		return fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d,"dmax":%d,"workers":2}`, app, trials, seed, dmax)
	}
	for seed := uint64(1); seed <= 2; seed++ { // first sight, then admission
		_, st, _, _ := submit(t, ts.URL, "", body(seed))
		if final := waitState(t, ts.URL, st.ID); final.State != StateDone {
			t.Fatalf("seed %d settled %q (%s)", seed, final.State, final.Error)
		}
	}
	ids := map[uint64]string{}
	for seed := uint64(11); seed <= 14; seed++ {
		code, st, apiErr, _ := submit(t, ts.URL, "", body(seed))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d (%+v)", seed, code, apiErr)
		}
		ids[seed] = st.ID
	}
	var wg sync.WaitGroup
	ledgers := make(map[uint64][]byte)
	var mu sync.Mutex
	for seed, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/ledger")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			ledgers[seed] = raw
			mu.Unlock()
		}()
	}
	wg.Wait()
	for seed, id := range ids {
		if final := waitState(t, ts.URL, id); final.State != StateDone || final.Executed != trials {
			t.Fatalf("seed %d settled %q executed %d (%s)", seed, final.State, final.Executed, final.Error)
		}
		if !bytes.Equal(ledgers[seed], batchLedger(t, app, trials, seed, dmax)) {
			t.Errorf("seed %d: concurrent hit's ledger differs from the batch ledger", seed)
		}
	}
	if got := preparedCounters(reg); got[0] != 4 || got[1] != 1 {
		t.Errorf("hits/misses %v, want 4/1", got[:2])
	}
}

// TestPreparedEviction lowers the byte budget to one entry: admitting a
// second key evicts the first, a resubmission of the evicted key is an
// admitting miss again, and every ledger, before and after eviction,
// equals the batch ledger.
func TestPreparedEviction(t *testing.T) {
	const trials, dmax = 6, 100
	reg := obs.NewRegistry()
	srv := NewServer(Config{Obs: reg, Checkpoints: sfi.DefaultCheckpoints})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	seed := uint64(0)
	run := func(engine string, want [3]int64) {
		t.Helper()
		seed++
		code, st, apiErr, _ := submit(t, ts.URL, "",
			fmt.Sprintf(`{"workload":"rawcaudio","trials":%d,"seed":%d,"engine":%q}`, trials, seed, engine))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d (%+v)", seed, code, apiErr)
		}
		if final := waitState(t, ts.URL, st.ID); final.State != StateDone {
			t.Fatalf("seed %d settled %q (%s)", seed, final.State, final.Error)
		}
		if !bytes.Equal(ledgerOf(t, ts.URL, st.ID), batchLedger(t, "rawcaudio", trials, seed, dmax)) {
			t.Errorf("seed %d (%s): served ledger differs from the batch ledger", seed, engine)
		}
		if got := preparedCounters(reg); [3]int64(got[:3]) != want {
			t.Errorf("seed %d (%s): hits/misses/evictions %v, want %v", seed, engine, got[:3], want)
		}
	}
	run("fast", [3]int64{0, 0, 0})
	run("fast", [3]int64{0, 1, 0})
	// The budget now holds exactly the one entry: the ref engine's key,
	// whose ladder is the same, evicts it when admitted.
	srv.prepared.mu.Lock()
	srv.prepared.budget = srv.prepared.bytes
	srv.prepared.mu.Unlock()
	run("ref", [3]int64{0, 1, 0})
	run("ref", [3]int64{0, 2, 1})
	run("ref", [3]int64{1, 2, 1})
	run("fast", [3]int64{1, 3, 2})
	run("fast", [3]int64{2, 3, 2})
	if n := len(srv.prepared.entries); n != 1 {
		t.Errorf("%d cached entries under a one-entry budget", n)
	}
}

// trapModule's fault-free run loads far outside memory, so preparing it
// fails in the analysis profiling run, ahead of the golden pass.
const trapModule = `module trap
global out[1]
func main(params=0 regs=2 frame=0):
entry#0:
  r0 = const 99999999
  r1 = load [r0+0]
  ret r1
`

// TestPreparedFailureRemembered submits a module whose fault-free run
// traps three times: every campaign settles failed with the trap, and
// the key's prepare runs once, its error admitted on first sight.
func TestPreparedFailureRemembered(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Obs: reg, Checkpoints: sfi.DefaultCheckpoints}))
	defer ts.Close()
	body, _ := json.Marshal(SubmitRequest{Module: trapModule, Outputs: []string{"out"}, Trials: 4})
	for i := 0; i < 3; i++ {
		code, st, apiErr, _ := submit(t, ts.URL, "", string(body))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%+v)", i, code, apiErr)
		}
		if final := waitState(t, ts.URL, st.ID); final.State != StateFailed || !strings.Contains(final.Error, "out of bounds") {
			t.Fatalf("submit %d settled %q (%s), want failed with the trap", i, final.State, final.Error)
		}
	}
	if n := spanCounts(reg)["serve/campaign/compile"]; n != 1 {
		t.Errorf("%d prepares for one failing key, want 1", n)
	}
	if got := preparedCounters(reg); got != [4]int64{2, 0, 0, preparedEntryBytes} {
		t.Errorf("hits/misses/evictions/bytes %v, want 2/0/0/%d", got, preparedEntryBytes)
	}
}

// TestPreparedCacheOnce drives the cache directly: concurrent requests
// of a seen key prepare it once, the rest wait for that prepare, and a
// panicking prepare is remembered as its key's error.
func TestPreparedCacheOnce(t *testing.T) {
	mod, err := ir.Parse(inlineDemo)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := sfi.Prepare(mod, nil, nil, interp.EngineFast, 0, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := newPreparedCache(reg)
	// The admitting prepare returns only once all four requests have
	// started, so the others find it in flight or done.
	var calls atomic.Int32
	var started sync.WaitGroup
	started.Add(4)
	prep := func() (*core.Result, *sfi.Golden, error) {
		if calls.Add(1) > 1 {
			started.Wait()
		}
		return nil, gold, nil
	}
	key := preparedKey{source: "demo"}
	if _, g, how, err := c.get(key, prep); g != gold || how != goldenFirst || err != nil {
		t.Fatalf("first request: %v %q %v", g, how, err)
	}
	var wg sync.WaitGroup
	hows := make([]string, 4)
	for i := range hows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			_, g, how, err := c.get(key, prep)
			if g != gold || err != nil {
				t.Errorf("request %d: golden %p (want %p), %v", i, g, gold, err)
			}
			hows[i] = how
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 2 {
		t.Errorf("prepare ran %d times, want 2: the first sight and one admission", n)
	}
	count := map[string]int{}
	for _, h := range hows {
		count[h]++
	}
	if count[goldenMiss] != 1 || count[goldenHit] != 3 {
		t.Errorf("concurrent requests got %v, want one miss and three hits", hows)
	}

	boom := preparedKey{source: "boom"}
	panics := 0
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			_, _, how, err := c.get(boom, func() (*core.Result, *sfi.Golden, error) { panic("boom") })
			if how != goldenHit || err == nil || !strings.Contains(err.Error(), "boom") {
				t.Errorf("request %d after the panic: %q %v", i, how, err)
			}
		}()
	}
	if panics != 1 {
		t.Errorf("%d requests panicked, want the first only", panics)
	}
}
