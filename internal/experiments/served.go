package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"encore/internal/core"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/sfi"
	"encore/internal/workload"
)

// ServedRow is one execution mode's measured campaign throughput.
type ServedRow struct {
	Mode string // "batch" (direct sfi.RunCampaign) or "served" (HTTP daemon)
	// WallMS is the wall-clock to finish every campaign.
	WallMS float64
	// TrialsPerSec is aggregate trial throughput across the campaigns.
	TrialsPerSec float64
	// CampaignsPerSec is campaign completion throughput.
	CampaignsPerSec float64
}

// ServedResult is the served-vs-batch campaign throughput dataset. The
// comparison is an equality oracle as a side effect: every served
// campaign's streamed ledger is asserted byte-identical to the batch
// ledger for the same seed before any row is reported.
type ServedResult struct {
	App       string
	Campaigns int
	Trials    int // per campaign
	Rows      []ServedRow
}

// Served measures the encore-serve daemon against direct batch
// execution: the same K campaigns (one seed each) run first as
// sequential sfi.RunCampaign calls with full per-campaign parallelism,
// then as K concurrent HTTP submissions whose JSONL ledgers are
// streamed back over chunked responses. Batch compiles once up front;
// the daemon compiles once through its keyed snapshot cache — the
// remaining spread is HTTP framing, admission, and scheduler contention
// between concurrent campaigns.
func (h *Harness) Served(app string) (*ServedResult, error) {
	if app == "" {
		app = "rawcaudio"
	}
	sp, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	campaigns := 8
	if h.Quick {
		campaigns = 3
	}
	trials := h.trials(300)
	out := &ServedResult{App: app, Campaigns: campaigns, Trials: trials}

	// Batch reference: one compile, K sequential campaigns, ledgers
	// retained for the byte-equality oracle below.
	art := sp.Build()
	ccfg := core.DefaultConfig()
	ccfg.Interp.Engine = h.Engine
	res, err := core.Compile(art.Mod, ccfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	batch := make([][]byte, campaigns)
	start := time.Now()
	for i := range batch {
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		if _, err := sfi.RunCampaign(res.Mod, res.Metas, art.Outputs, sfi.CampaignConfig{
			Trials: trials, Seed: uint64(i + 1), Dmax: 100, Engine: h.Engine,
			Checkpoints: sfi.DefaultCheckpoints, App: app,
			Regions: serve.RegionTable(res, 100), Trace: sink,
		}); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", app, i+1, err)
		}
		if err := sink.Err(); err != nil {
			return nil, err
		}
		batch[i] = buf.Bytes()
	}
	batchWall := time.Since(start)

	// Served: K concurrent submissions against an in-process daemon,
	// each ledger streamed to completion.
	srv := httptest.NewServer(serve.NewServer(serve.Config{
		Obs: obs.NewRegistry(), Engine: h.Engine, Checkpoints: sfi.DefaultCheckpoints,
		MaxInFlightTrials: campaigns * trials,
	}))
	defer srv.Close()
	served := make([][]byte, campaigns)
	errs := make([]error, campaigns)
	start = time.Now()
	var wg sync.WaitGroup
	for i := range served {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			served[i], errs[i] = submitAndStream(srv.URL, app, trials, uint64(i+1))
		}(i)
	}
	wg.Wait()
	servedWall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("served campaign seed %d: %w", i+1, err)
		}
	}
	for i := range served {
		if !bytes.Equal(served[i], batch[i]) {
			return nil, fmt.Errorf("served ledger for seed %d diverges from batch (%d vs %d bytes)",
				i+1, len(served[i]), len(batch[i]))
		}
	}

	for _, r := range []struct {
		mode string
		wall time.Duration
	}{{"batch", batchWall}, {"served", servedWall}} {
		out.Rows = append(out.Rows, ServedRow{
			Mode:            r.mode,
			WallMS:          float64(r.wall.Microseconds()) / 1000,
			TrialsPerSec:    float64(campaigns*trials) / r.wall.Seconds(),
			CampaignsPerSec: float64(campaigns) / r.wall.Seconds(),
		})
	}
	return out, nil
}

// submitAndStream runs one campaign through the daemon's public API:
// submit, stream the full ledger, and return its bytes.
func submitAndStream(base, app string, trials int, seed uint64) ([]byte, error) {
	body := fmt.Sprintf(`{"workload":%q,"trials":%d,"seed":%d}`, app, trials, seed)
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	lresp, err := http.Get(base + "/v1/campaigns/" + st.ID + "/ledger")
	if err != nil {
		return nil, err
	}
	defer lresp.Body.Close()
	return io.ReadAll(lresp.Body)
}

// Render writes the served-vs-batch throughput table.
func (r *ServedResult) Render(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Served campaigns on %s (%d campaigns x %d trials; ledgers byte-identical to batch)\n",
		r.App, r.Campaigns, r.Trials)
	fmt.Fprintln(tw, "mode\twall ms\ttrials/s\tcampaigns/s")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f\n", row.Mode, row.WallMS, row.TrialsPerSec, row.CampaignsPerSec)
	}
	tw.Flush()
}
