package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// batchLedger produces the reference byte stream the daemon must match:
// the exact compile-and-campaign path cmd/encore-sfi's -trace flag runs.
func batchLedger(t *testing.T, app string, trials int, seed uint64, dmax int64) []byte {
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
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: trials, Seed: seed, Dmax: dmax, Obs: obs.NewRegistry(),
		App: app, Regions: RegionTable(res, dmax), Trace: sink,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submit POSTs a campaign and decodes the response, returning the HTTP
// status, the body (status or error), and the Retry-After header.
func submit(t *testing.T, url, tenant string, body string) (int, CampaignStatus, APIError, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Encore-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st CampaignStatus
	var apiErr APIError
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode submit response %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("decode error response %q: %v", raw, err)
	}
	return resp.StatusCode, st, apiErr, resp.Header.Get("Retry-After")
}

// waitState polls a campaign's status until it leaves StateRunning.
func waitState(t *testing.T, url, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running after 30s", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedLedgerMatchesBatch locks the acceptance criterion: a served
// campaign's streamed ledger is byte-identical to batch encore-sfi
// -trace output for the same (workload, config, seed) at every worker
// count.
func TestServedLedgerMatchesBatch(t *testing.T) {
	const (
		app    = "rawcaudio"
		trials = 24
		seed   = uint64(7)
		dmax   = int64(100)
	)
	want := batchLedger(t, app, trials, seed, dmax)
	if len(want) == 0 {
		t.Fatal("batch ledger is empty")
	}

	ts := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry()}))
	defer ts.Close()

	for _, workers := range []int{1, 3, 5} {
		body := fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d,"dmax":%d,"workers":%d}`,
			app, trials, seed, dmax, workers)
		code, st, apiErr, _ := submit(t, ts.URL, "", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit (workers=%d): status %d, error %+v", workers, code, apiErr)
		}
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/ledger")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("served ledger (workers=%d) diverges from batch ledger:\nserved %d bytes, batch %d bytes",
				workers, len(got), len(want))
		}
		final := waitState(t, ts.URL, st.ID)
		if final.State != StateDone || final.Executed != trials {
			t.Fatalf("campaign settled %q executed=%d, want done/%d", final.State, final.Executed, trials)
		}
	}

	// The result endpoint reports the settled outcome distribution.
	resp, err := http.Get(ts.URL + "/v1/campaigns/c000001/result")
	if err != nil {
		t.Fatal(err)
	}
	var res ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != trials {
		t.Fatalf("result counts sum to %d, want %d (%+v)", total, trials, res.Counts)
	}
}

// TestInlineModuleCampaign submits an inline IR module instead of a
// named workload and checks the campaign settles with a full ledger.
func TestInlineModuleCampaign(t *testing.T) {
	mod := `module demo
global data[8]
func main(params=0 regs=3 frame=0):
entry#0:
  r0 = global #0
  r1 = const 7
  store [r0+3] = r1
  r2 = load [r0+3]
  ret r2
`
	ts := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry()}))
	defer ts.Close()
	body, _ := json.Marshal(SubmitRequest{Module: mod, Outputs: []string{"data"}, Trials: 10})
	code, st, apiErr, _ := submit(t, ts.URL, "", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, apiErr)
	}
	final := waitState(t, ts.URL, st.ID)
	if final.State != StateDone || final.Executed != 10 {
		t.Fatalf("inline campaign settled %q executed=%d, want done/10", final.State, final.Executed)
	}
	if final.LedgerRecords != 10 {
		t.Fatalf("ledger holds %d records, want 10", final.LedgerRecords)
	}
}

// hostileModules are inline modules that crash the process unless
// submit-time validation rejects them: past the parser, each panics or
// exhausts memory on the campaign goroutine, taking every tenant's
// campaigns with it, except "missing operand", which the parser must
// reject without panicking. FuzzParse's checked-in corpus holds the same
// inputs.
var hostileModules = map[string]string{
	"negative global":         "module m\nglobal g[-4]\nfunc main(params=0 regs=1 frame=0):\nentry#0:\n  r0 = const 1\n  ret r0\n",
	"huge global":             "module m\nglobal g[4611686018427387904]\nfunc main(params=0 regs=1 frame=0):\nentry#0:\n  r0 = const 1\n  ret r0\n",
	"oversized data":          "module m\nglobal g[3000000000]\nfunc main(params=0 regs=1 frame=0):\nentry#0:\n  r0 = const 1\n  ret r0\n",
	"oversized register file": "module m\nfunc main(params=0 regs=4000000000 frame=0):\nentry#0:\n  r0 = const 1\n  ret r0\n",
	"params beyond registers": "module m\nfunc main(params=7 regs=3 frame=0):\nentry#0:\n  r0 = const 1\n  ret r0\n",
	"missing operand":         "module m\nfunc main(params=0 regs=1 frame=0):\nentry#0:\n  r0 = const\n  ret r0\n",
}

// TestSubmitValidation walks the 400/404 surface, including every
// hostile module, and then checks that the daemon still runs a
// well-formed campaign to done.
func TestSubmitValidation(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry()}))
	defer ts.Close()
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"no source", `{}`},
		{"both sources", `{"workload":"rawcaudio","module":"module x\n"}`},
		{"unknown workload", `{"workload":"nope"}`},
		{"unknown engine", `{"workload":"rawcaudio","engine":"warp"}`},
		{"negative dmax", `{"workload":"rawcaudio","dmax":-1}`},
		{"negative bits", `{"workload":"rawcaudio","bits":-1}`},
		{"bits above 64", `{"workload":"rawcaudio","bits":65}`},
		{"negative checkpoints", `{"workload":"rawcaudio","checkpoints":-1}`},
		{"bad module", `{"module":"not ir"}`},
		{"unknown output", `{"module":"module m\nglobal g[1]\nfunc main(params=0 regs=1 frame=0):\nentry#0:\n  r0 = const 0\n  ret r0\n","outputs":["zz"]}`},
	}
	for name, mod := range hostileModules {
		body, _ := json.Marshal(SubmitRequest{Module: mod, Trials: 4})
		cases = append(cases, struct{ name, body string }{name, string(body)})
	}
	for _, tc := range cases {
		code, _, apiErr, _ := submit(t, ts.URL, "", tc.body)
		if code != http.StatusBadRequest || apiErr.Code != "bad-request" {
			t.Errorf("%s: status %d (%+v), want 400 bad-request", tc.name, code, apiErr)
		}
	}
	code, st, apiErr, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("well-formed submit after the rejected ones: status %d (%+v)", code, apiErr)
	}
	if final := waitState(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("well-formed campaign settled %q (%s), want done", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d, want 404", resp.StatusCode)
	}
}

// TestWorkersCapped: a request's workers are capped at GOMAXPROCS, so a
// tenant cannot make a campaign lease a machine per requested worker.
// It checks normalize alone and starts no campaign.
func TestWorkersCapped(t *testing.T) {
	sp, err := (&SubmitRequest{Workload: "rawcaudio", Trials: 4096, Workers: 1 << 20}).normalize(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.GOMAXPROCS(0); sp.workers != n {
		t.Errorf("workers %d, want GOMAXPROCS %d", sp.workers, n)
	}
}

// TestQuotaBackpressure checks the admission budget: concurrent
// campaigns against a full budget answer 429 with a Retry-After hint,
// per-tenant caps bind before the global one, oversized requests are
// rejected outright, and finished campaigns return their budget.
func TestQuotaBackpressure(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(Config{
		MaxInFlightTrials:       40,
		TenantMaxInFlightTrials: 25,
		RetryAfter:              2 * time.Second,
		Obs:                     obs.NewRegistry(),
		Gate: func(ctx context.Context, id string) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	small := func(n int) string { return fmt.Sprintf(`{"workload":"rawcaudio","trials":%d}`, n) }

	// Oversized: can never fit the per-tenant cap.
	code, _, apiErr, _ := submit(t, ts.URL, "t1", small(26))
	if code != http.StatusBadRequest || apiErr.Code != "too-large" {
		t.Fatalf("oversized submit: status %d code %q, want 400 too-large", code, apiErr.Code)
	}

	// t1 holds 20 of its 25-trial cap behind the gate.
	code, stA, _, _ := submit(t, ts.URL, "t1", small(20))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	// t1 asking for 10 more breaches the tenant cap (20+10 > 25).
	code, _, apiErr, retry := submit(t, ts.URL, "t1", small(10))
	if code != http.StatusTooManyRequests || apiErr.Code != "quota" {
		t.Fatalf("tenant quota: status %d code %q, want 429 quota", code, apiErr.Code)
	}
	if retry != "2" || apiErr.RetryAfterSec != 2 {
		t.Fatalf("tenant quota: Retry-After %q / %d, want 2", retry, apiErr.RetryAfterSec)
	}
	// A different tenant still fits the global budget (20+20 <= 40)...
	code, stC, _, _ := submit(t, ts.URL, "t2", small(20))
	if code != http.StatusAccepted {
		t.Fatalf("second tenant: status %d", code)
	}
	// ...but now the global budget is exhausted for everyone, under
	// concurrent load.
	var wg sync.WaitGroup
	codes := make([]int, 8)
	retries := make([]string, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _, retries[i] = submit(t, ts.URL, fmt.Sprintf("t%d", 3+i), small(10))
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusTooManyRequests || retries[i] != "2" {
			t.Fatalf("concurrent submit %d: status %d Retry-After %q, want 429 with hint", i, code, retries[i])
		}
	}

	// Releasing the gate lets both campaigns run; their budget returns.
	close(gate)
	if st := waitState(t, ts.URL, stA.ID); st.State != StateDone {
		t.Fatalf("campaign A settled %q, want done", st.State)
	}
	if st := waitState(t, ts.URL, stC.ID); st.State != StateDone {
		t.Fatalf("campaign C settled %q, want done", st.State)
	}
	code, stD, _, _ := submit(t, ts.URL, "t1", small(25))
	if code != http.StatusAccepted {
		t.Fatalf("post-release submit: status %d, want 202", code)
	}
	waitState(t, ts.URL, stD.ID)
}

// TestCancelFreesBudget streams a large single-worker campaign, cancels
// it mid-ledger, and checks the stream terminates with a partial ledger
// and the admission budget frees up for the next campaign.
func TestCancelFreesBudget(t *testing.T) {
	const trials = 5000
	srv := NewServer(Config{MaxInFlightTrials: trials, Obs: obs.NewRegistry()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := fmt.Sprintf(`{"workload":"rawcaudio","trials":%d,"workers":1,"engine":"ref"}`, trials)
	code, st, apiErr, _ := submit(t, ts.URL, "", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d error %+v", code, apiErr)
	}
	// The budget is fully committed while the campaign runs.
	code, _, apiErr, _ = submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":10}`)
	if code != http.StatusTooManyRequests || apiErr.Code != "quota" {
		t.Fatalf("submit during campaign: status %d code %q, want 429 quota", code, apiErr.Code)
	}

	// Read the header plus a few trial records mid-stream, then cancel.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 4; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("ledger line %d: %v", i, err)
		}
	}
	cancelResp, err := http.Post(ts.URL+"/v1/campaigns/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelResp.Body.Close()

	// The stream terminates with whatever prefix completed.
	rest, err := io.ReadAll(br)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := 3 + bytes.Count(rest, []byte("\n"))
	if lines >= trials {
		t.Fatalf("ledger holds %d records after cancel, want a partial prefix", lines)
	}

	final := waitState(t, ts.URL, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("campaign settled %q, want canceled", final.State)
	}
	if final.Executed == 0 || final.Executed >= trials {
		t.Fatalf("canceled campaign executed %d trials, want a partial count", final.Executed)
	}

	// Cancellation returned the budget: a fresh campaign is admitted.
	code, st2, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":10}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d, want 202", code)
	}
	if st := waitState(t, ts.URL, st2.ID); st.State != StateDone {
		t.Fatalf("post-cancel campaign settled %q, want done", st.State)
	}
}

// TestDrainFinishesInFlight checks graceful shutdown: a draining server
// rejects new campaigns with 503 but waits for in-flight trials, and
// Drain returns once they settle.
func TestDrainFinishesInFlight(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(Config{
		Obs: obs.NewRegistry(),
		Gate: func(ctx context.Context, id string) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, stA, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Wait for the drain flag to land, then probe admission and health.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _, apiErr, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusServiceUnavailable || apiErr.Code != "draining" {
		t.Fatalf("submit while draining: status %d code %q, want 503 draining", code, apiErr.Code)
	}

	// The in-flight campaign still runs to completion once released.
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := waitState(t, ts.URL, stA.ID)
	if final.State != StateDone || final.Executed != 5 {
		t.Fatalf("drained campaign settled %q executed=%d, want done/5", final.State, final.Executed)
	}
}

// TestDrainTimeout checks Drain gives up with the context's error when
// in-flight campaigns outlive the deadline (the command then force-stops).
func TestDrainTimeout(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	srv := NewServer(Config{
		Obs: obs.NewRegistry(),
		Gate: func(ctx context.Context, id string) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, _, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
}

// TestMetricsEndpoint checks the /metrics snapshot carries the serve
// counters and gauges after a campaign.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Obs: reg}))
	defer ts.Close()
	code, st, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts.URL, st.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["serve.campaigns.accepted"] != 1 || counters["serve.campaigns.completed"] != 1 {
		t.Fatalf("metrics counters = %v, want accepted=completed=1", counters)
	}
	gauges := map[string]int64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if v, ok := gauges["serve.inflight.trials"]; !ok || v != 0 {
		t.Fatalf("serve.inflight.trials gauge = %d (present %v), want 0 after settle", v, ok)
	}
}

// TestCampaignPanicContained checks the daemon's panic boundary: a
// campaign whose goroutine panics (here, in the Gate test seam) settles
// failed with the panic logged alongside its stack, its admission budget
// is released, and the daemon keeps serving — a second campaign that
// only fits in the freed budget runs to done.
func TestCampaignPanicContained(t *testing.T) {
	reg := obs.NewRegistry()
	logw := newSyncBuffer()
	srv := NewServer(Config{
		Obs: reg, Log: logw, MaxInFlightTrials: 8,
		Gate: func(ctx context.Context, id string) {
			if id == "c000001" {
				panic("gate exploded")
			}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, first, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusAccepted || first.ID != "c000001" {
		t.Fatalf("first submit: status %d id %q", code, first.ID)
	}
	if st := waitState(t, ts.URL, first.ID); st.State != StateFailed || !strings.Contains(st.Error, "gate exploded") {
		t.Fatalf("panicking campaign settled %q (error %q), want failed with the panic value", st.State, st.Error)
	}
	// 5 + 5 trials exceed the 8-trial budget: this admission only
	// succeeds if the panicking campaign gave its share back.
	code, second, apiErr, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after panic: status %d (%+v), want 202", code, apiErr)
	}
	if st := waitState(t, ts.URL, second.ID); st.State != StateDone || st.Executed != 5 {
		t.Fatalf("campaign after panic settled %q executed=%d, want done/5", st.State, st.Executed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain after a contained panic: %v", err)
	}
	for _, g := range []string{"serve.inflight.trials", "serve.inflight.campaigns"} {
		if v := reg.Gauge(g).Value(); v != 0 {
			t.Errorf("%s = %d after both campaigns settled, want 0", g, v)
		}
	}
	if n := reg.Counter("serve.campaigns.panicked").Value(); n != 1 {
		t.Errorf("serve.campaigns.panicked = %d, want 1", n)
	}
	if n := reg.Counter("serve.campaigns.failed").Value(); n != 1 {
		t.Errorf("serve.campaigns.failed = %d, want 1", n)
	}
	var logged map[string]any
	for _, line := range strings.Split(strings.TrimRight(logw.String(), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if v["event"] == "campaign_panic" {
			logged = v
		}
	}
	if logged == nil || logged["campaign"] != first.ID || logged["panic"] != "gate exploded" {
		t.Fatalf("campaign_panic log event = %+v", logged)
	}
	if stack, _ := logged["stack"].(string); !strings.Contains(stack, "TestCampaignPanicContained") {
		t.Errorf("campaign_panic stack does not reach the panicking Gate:\n%s", stack)
	}
}

// TestServedCampaignSkipsMeasureRun checks a served campaign compiles
// without Finalize's measurement run: the daemon's registry records the
// finalize stage but no compile/finalize/measure span.
func TestServedCampaignSkipsMeasureRun(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Obs: reg}))
	defer ts.Close()
	code, st, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st := waitState(t, ts.URL, st.ID); st.State != StateDone {
		t.Fatalf("campaign settled %q, want done", st.State)
	}
	spans := map[string]bool{}
	for _, sp := range reg.Snapshot().Spans {
		spans[sp.Name] = true
	}
	if !spans["compile/finalize"] || !spans["compile/finalize/instrument"] {
		t.Fatalf("daemon spans %v lack the finalize stage", spans)
	}
	if spans["compile/finalize/measure"] {
		t.Error("served campaign ran Finalize's measurement run (compile/finalize/measure span present)")
	}
}
