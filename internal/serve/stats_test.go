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
	"reflect"
	"strings"
	"testing"
	"time"

	"encore/internal/attrib"
	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/sfi"
	"encore/internal/stats"
	"encore/internal/workload"
)

// batchStats runs the reference batch campaign with an estimator and a
// trace, returning the final snapshot and the trace read back for the
// post-hoc pass.
func batchStats(t *testing.T, app string, trials int, seed uint64, dmax int64) (*stats.Snapshot, *attrib.Campaign) {
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
	est := stats.New()
	var ledger bytes.Buffer
	if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
		Trials: trials, Seed: seed, Dmax: dmax, Obs: obs.NewRegistry(),
		App: app, Regions: RegionTable(res, dmax), Trace: obs.NewJSONLSink(&ledger), Stats: est,
	}); err != nil {
		t.Fatal(err)
	}
	cs, err := attrib.ReadTrace(&ledger)
	if err != nil || len(cs) != 1 {
		t.Fatalf("reading the batch ledger back: %d campaigns, %v", len(cs), err)
	}
	return est.Snapshot(), cs[0]
}

// TestStatsAgreeEverywhere locks the PR's acceptance criterion in one
// test: for a finished campaign, (a) the last snapshot on the live
// stats stream, (b) the stats endpoint's settled snapshot, (c) the
// batch estimator snapshot (what encore-sfi -stats writes), and (d)
// attrib.FromStats all agree exactly — (a)–(c) byte for byte, (d)
// deeply equal to the batch Attribute report.
func TestStatsAgreeEverywhere(t *testing.T) {
	const (
		app    = "rawcaudio"
		trials = 24
		seed   = uint64(7)
		dmax   = int64(100)
	)
	batchSnap, batchCamp := batchStats(t, app, trials, seed, dmax)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(batchSnap); err != nil {
		t.Fatal(err)
	}

	// Gate holds the campaign until the stream follower is connected, so
	// the stream provably observes a mid-campaign snapshot (the immediate
	// zero-trial one) before the final one.
	gate := make(chan struct{})
	ts := httptest.NewServer(NewServer(Config{
		Obs:  obs.NewRegistry(),
		Gate: func(ctx context.Context, id string) { <-gate },
	}))
	defer ts.Close()
	body := fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d,"dmax":%d,"workers":3}`,
		app, trials, seed, dmax)
	code, st, apiErr, _ := submit(t, ts.URL, "", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, apiErr)
	}

	// (a) Stream snapshots until the campaign settles; the final NDJSON
	// line must be byte-identical to the batch snapshot.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/stats/stream?every=8")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var lines [][]byte
	released := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := append([]byte{}, sc.Bytes()...)
		lines = append(lines, line)
		var snap stats.Snapshot
		if err := json.Unmarshal(line, &snap); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", line, err)
		}
		if !released {
			// The immediate first snapshot arrived while the campaign was
			// still gated; let it run now.
			if snap.Trials != 0 {
				t.Errorf("first streamed snapshot has %d trials, want 0 (campaign gated)", snap.Trials)
			}
			close(gate)
			released = true
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d snapshots; want the immediate one plus at least the final", len(lines))
	}
	last := append(lines[len(lines)-1], '\n')
	if !bytes.Equal(last, want.Bytes()) {
		t.Errorf("final streamed snapshot diverges from batch snapshot:\nstream: %s\nbatch:  %s", last, want.Bytes())
	}

	// (b) The settled stats endpoint returns the same bytes.
	final := waitState(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("campaign settled %q, want done", final.State)
	}
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("stats endpoint diverges from batch snapshot:\nserved: %s\nbatch:  %s", got, want.Bytes())
	}

	// (d) FromStats on the shared snapshot equals the batch Attribute
	// report exactly.
	if rep, fromStats := attrib.Attribute(batchCamp), attrib.FromStats(batchSnap); !reflect.DeepEqual(rep, fromStats) {
		t.Errorf("FromStats diverges from Attribute:\nattribute: %+v\nfromstats: %+v", rep, fromStats)
	}
}

// TestStatsStreamMonotonic checks stream snapshots carry strictly
// increasing trial counts and that the ?every validation rejects junk.
func TestStatsStreamValidation(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry()}))
	defer ts.Close()
	code, st, apiErr, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":8,"seed":1,"dmax":100}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, apiErr)
	}
	waitState(t, ts.URL, st.ID)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/stats/stream?every=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("every=bogus: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/campaigns/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign stats: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsPromFormat checks /metrics?format=prom serves the text
// exposition with the serve counters.
func TestMetricsPromFormat(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry()}))
	defer ts.Close()
	code, st, apiErr, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5,"seed":1,"dmax":100}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, apiErr)
	}
	waitState(t, ts.URL, st.ID)
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q, want text/plain", ct)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE encore_serve_campaigns_accepted counter",
		"encore_serve_campaigns_accepted 1",
		"# TYPE encore_serve_inflight_campaigns gauge",
		"# TYPE encore_sfi_worker_trials_per_sec histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, out)
		}
	}
	// The JSON default is unchanged.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("default /metrics is no longer JSON: %v", err)
	}
}

// syncBuffer lets the test read the log buffer while handlers write it.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	b := &syncBuffer{mu: make(chan struct{}, 1)}
	b.mu <- struct{}{}
	return b
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.String()
}

// TestStructuredLogging checks the campaign lifecycle and request logs:
// every line is JSON, campaign_accepted and campaign_settled carry the
// campaign id, and the settle line has the outcome histogram and wall
// time.
func TestStructuredLogging(t *testing.T) {
	logw := newSyncBuffer()
	ts := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry(), Log: logw, LogRequests: true}))
	defer ts.Close()
	code, st, apiErr, _ := submit(t, ts.URL, "acme", `{"workload":"rawcaudio","trials":6,"seed":1,"dmax":100}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, apiErr)
	}
	waitState(t, ts.URL, st.ID)
	events := map[string][]map[string]any{}
	for _, line := range strings.Split(strings.TrimRight(logw.String(), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		ev, _ := v["event"].(string)
		events[ev] = append(events[ev], v)
	}
	if len(events["campaign_accepted"]) != 1 {
		t.Fatalf("want 1 campaign_accepted event, got %+v", events)
	}
	acc := events["campaign_accepted"][0]
	if acc["campaign"] != st.ID || acc["tenant"] != "acme" || acc["app"] != "rawcaudio" {
		t.Errorf("campaign_accepted fields wrong: %+v", acc)
	}
	if len(events["campaign_settled"]) != 1 {
		t.Fatalf("want 1 campaign_settled event, got %+v", events)
	}
	set := events["campaign_settled"][0]
	if set["campaign"] != st.ID || set["state"] != StateDone {
		t.Errorf("campaign_settled fields wrong: %+v", set)
	}
	if _, ok := set["wall_ms"].(float64); !ok {
		t.Errorf("campaign_settled missing wall_ms: %+v", set)
	}
	outcomes, ok := set["outcomes"].(map[string]any)
	if !ok || len(outcomes) == 0 {
		t.Errorf("campaign_settled missing outcome histogram: %+v", set)
	}
	if len(events["request"]) == 0 {
		t.Error("no request events logged with LogRequests")
	} else {
		req := events["request"][0]
		if req["method"] != "POST" || req["path"] != "/v1/campaigns" {
			t.Errorf("first request event wrong: %+v", req)
		}
	}
}

// TestPprofMounting checks /debug/pprof/ is present only behind the
// Pprof flag.
func TestPprofMounting(t *testing.T) {
	on := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry(), Pprof: true}))
	defer on.Close()
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with Pprof on: status %d, want 200", resp.StatusCode)
	}
	off := httptest.NewServer(NewServer(Config{Obs: obs.NewRegistry()}))
	defer off.Close()
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof index with Pprof off: status %d, want 404", resp.StatusCode)
	}
}

// TestAdaptiveCancelDuringStream cancels an adaptive campaign while its
// ledger is streaming: the stream must terminate with a partial prefix,
// the campaign settles canceled with a partial executed count, and the
// admission budget frees up — the gated-stream guarantees hold when
// adaptive rounds, not only the drain window, hold trials back.
func TestAdaptiveCancelDuringStream(t *testing.T) {
	const trials = 5000
	srv := NewServer(Config{MaxInFlightTrials: trials, Obs: obs.NewRegistry()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// An unreachably tight target keeps every round busy, so the cancel
	// lands mid-campaign rather than after adaptive stopping drained it.
	body := fmt.Sprintf(`{"workload":"rawcaudio","trials":%d,"workers":1,"engine":"ref","adaptive":true,"adaptive_ci":0.0001}`, trials)
	code, st, apiErr, _ := submit(t, ts.URL, "", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d error %+v", code, apiErr)
	}

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
		t.Fatalf("canceled adaptive campaign executed %d trials, want a partial count", final.Executed)
	}

	// The budget came back: a fresh adaptive campaign is admitted and
	// finishes.
	code, st2, _, _ := submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":10,"adaptive":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d, want 202", code)
	}
	if st := waitState(t, ts.URL, st2.ID); st.State != StateDone {
		t.Fatalf("post-cancel campaign settled %q, want done", st.State)
	}
}

// TestAdaptiveDrainDuringStream drains the server while a gated
// adaptive campaign is mid-stream: drain must wait for it, the stream
// must still deliver the full (skip-elided) ledger, and the settled
// result must carry the adaptive accounting.
func TestAdaptiveDrainDuringStream(t *testing.T) {
	const trials = 300
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

	body := fmt.Sprintf(`{"workload":"g721encode","trials":%d,"seed":7,"adaptive":true,"adaptive_ci":0.12}`, trials)
	code, st, apiErr, _ := submit(t, ts.URL, "", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d error %+v", code, apiErr)
	}

	// Attach the ledger stream while the campaign is still gated. The
	// stream produces nothing until the gate opens, so a goroutine
	// collects it while the main flow drives drain and the gate.
	type streamResult struct {
		body []byte
		err  error
	}
	streamed := make(chan streamResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/ledger")
		if err != nil {
			streamed <- streamResult{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		streamed <- streamResult{body: body, err: err}
	}()

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hz.Body.Close()
		if hz.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _, apiErr, _ = submit(t, ts.URL, "", `{"workload":"rawcaudio","trials":5}`)
	if code != http.StatusServiceUnavailable || apiErr.Code != "draining" {
		t.Fatalf("submit while draining: status %d code %q, want 503 draining", code, apiErr.Code)
	}

	// Release the gate; the draining server still runs the adaptive
	// campaign to completion and the stream delivers the elided ledger.
	close(gate)
	sr := <-streamed
	if sr.err != nil {
		t.Fatalf("ledger stream: %v", sr.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(sr.body), "\n"), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], `"type":"campaign"`) {
		t.Fatalf("first ledger line is not the campaign header: %q", lines[0])
	}
	records := len(lines) - 1

	final := waitState(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("campaign settled %q, want done", final.State)
	}
	res, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rr ResultResponse
	err = json.NewDecoder(res.Body).Decode(&rr)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Skipped == 0 {
		t.Errorf("adaptive campaign skipped nothing (target 0.12 over %d trials should converge)", trials)
	}
	if rr.Executed+rr.Skipped != trials {
		t.Errorf("executed %d + skipped %d != %d", rr.Executed, rr.Skipped, trials)
	}
	if records != rr.Executed {
		t.Errorf("ledger streamed %d records, result reports %d executed", records, rr.Executed)
	}
}
