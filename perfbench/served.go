package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/serve"
	"encore/internal/workload"
)

// servedEpochOps bounds how many campaigns one daemon instance serves in
// a timed run. The daemon keeps every finished campaign for its lifetime,
// so without a bound peak RSS would grow with ops per run and a faster
// build would read as a memory regression; the run instead starts a fresh
// daemon (a fresh set-up) every servedEpochOps ops.
const servedEpochOps = 128

// servedBench drives an in-process encore-serve daemon over loopback
// HTTP from tenants() closed-loop clients. Each client submits a
// campaign, streams its ledger to EOF, fetches the result, then submits
// the next.
type servedBench struct {
	reg    *obs.Registry // the daemon's Config.Obs, fresh per daemon
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// Traced-op probes.
	mu     sync.Mutex
	probes []servedProbe
}

// servedProbe holds one traced op's client-side phase timings.
type servedProbe struct {
	submit, firstRecord, stream, result time.Duration
}

func newServedBench() *servedBench { return &servedBench{} }

func (b *servedBench) epochOps() int { return servedEpochOps }

// setup starts a daemon configured as encore-serve runs it and warms its
// analysis cache with one default submission per application.
func (b *servedBench) setup() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.reg = obs.NewRegistry()
	b.srv = serve.NewServer(serve.Config{
		Checkpoints: checkpoints, MaxInFlightTrials: 8192, Workers: 1, Obs: b.reg,
	})
	b.hs = &http.Server{Handler: b.srv}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: tenants()}}
	for _, a := range mix {
		r := b.do(op{Index: -1, Kind: kindServedDefault, App: a.name, Seed: 1, Dmax: 100, Trials: a.served}, "warmup", nil)
		if r.err != nil {
			return fmt.Errorf("warm-up %s: %w", a.name, r.err)
		}
	}
	return nil
}

// teardown drains the daemon, shuts its listener down and waits for the
// serving goroutine to return.
func (b *servedBench) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := b.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	b.client.CloseIdleConnections()
	if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// request is the submit body for o.
func request(o op) serve.SubmitRequest {
	seed := o.Seed
	req := serve.SubmitRequest{Trials: o.Trials, Seed: &seed}
	switch o.Kind {
	case kindServedDefault:
		req.Workload = o.App
	case kindServedKnobs:
		req.Workload = o.App
		req.Dmax, req.Gamma, req.Budget = &o.Dmax, &o.Gamma, &o.Budget
	case kindServedInline:
		req.Module, req.Outputs, req.App = o.Module, o.Outputs, o.App
		req.Dmax = &o.Dmax
	}
	return req
}

// do runs one op as tenant: submit, stream the ledger to EOF, fetch the
// result. Any non-2xx answer or a campaign that does not settle done with
// every trial executed fails the op.
func (b *servedBench) do(o op, tenant string, tr *tracer) (run opRun) {
	run.op = o
	body, err := json.Marshal(request(o))
	if err != nil {
		run.err = err
		return run
	}
	start := time.Now()
	defer func() { run.lat = time.Since(start) }()
	opSpan := tr.reserve("op", o.Index, -1, start)
	var st serve.CampaignStatus
	if err := b.call(http.MethodPost, "/v1/campaigns", tenant, body, http.StatusAccepted, &st); err != nil {
		run.err = fmt.Errorf("submit: %w", err)
		return run
	}
	t1 := time.Now()
	tr.add("serve.submit", o.Index, opSpan, start, t1)

	ledger := newLedgerDigest()
	var first time.Time
	if err := b.stream("/v1/campaigns/"+st.ID+"/ledger", tenant, ledger, &first); err != nil {
		run.err = fmt.Errorf("ledger: %w", err)
		return run
	}
	t2 := time.Now()
	tr.add("serve.stream", o.Index, opSpan, t1, t2)

	var res serve.ResultResponse
	if err := b.call(http.MethodGet, "/v1/campaigns/"+st.ID+"/result", tenant, nil, http.StatusOK, &res); err != nil {
		run.err = fmt.Errorf("result: %w", err)
		return run
	}
	end := time.Now()
	tr.add("serve.result", o.Index, opSpan, t2, end)
	tr.finish(opSpan, end)
	if res.State != serve.StateDone || res.Executed != o.Trials {
		run.err = fmt.Errorf("campaign %s settled %s with %d/%d trials: %s", st.ID, res.State, res.Executed, o.Trials, res.Error)
		return run
	}
	run.trials = res.Executed
	run.digest = ledger.sum()
	run.bytes = ledger.n
	if tr != nil {
		b.mu.Lock()
		b.probes = append(b.probes, servedProbe{
			submit: t1.Sub(start), firstRecord: first.Sub(start),
			stream: t2.Sub(t1), result: end.Sub(t2),
		})
		b.mu.Unlock()
	}
	return run
}

// call sends one request and decodes the JSON answer into out, failing
// on any status other than want.
func (b *servedBench) call(method, path, tenant string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Encore-Tenant", tenant)
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// stream reads a ledger to EOF into w, noting when its first line (the
// campaign header record) arrived.
func (b *servedBench) stream(path, tenant string, w io.Writer, first *time.Time) error {
	req, err := http.NewRequest(http.MethodGet, b.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Encore-Tenant", tenant)
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if first.IsZero() {
				*first = time.Now()
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// run serves ops from next on tenants() concurrent clients.
func (b *servedBench) run(next func() (op, bool), tr *tracer) []opRun {
	var (
		mu   sync.Mutex
		runs []opRun
		wg   sync.WaitGroup
	)
	for t := 0; t < tenants(); t++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				mu.Lock()
				o, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				r := b.do(o, tenant, tr)
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}(fmt.Sprintf("tenant-%d", t))
	}
	wg.Wait()
	return runs
}

// check compares the served ledger with the batch ledger of the same
// request, computed on the reference engine without a checkpoint ladder.
func (b *servedBench) check(r opRun) error {
	digest, err := refLedger(r.op)
	if err != nil {
		return err
	}
	if digest != r.digest {
		return fmt.Errorf("served ledger %.12s differs from the batch reference %.12s", r.digest, digest)
	}
	return nil
}

// sideModule compiles the op's module as the daemon does, for the interp
// side calls.
func (b *servedBench) sideModule(o op) (*ir.Module, []interp.RegionMeta, error) {
	res, _, err := compileOp(o, interp.EngineFast)
	if err != nil {
		return nil, nil, err
	}
	return res.Mod, res.Metas, nil
}

// opSource builds the op's program: a fresh workload build, or the
// inline module parsed from its text.
func opSource(o op) (*ir.Module, []*ir.Global, error) {
	if o.Kind != kindServedInline {
		sp, err := workload.ByName(o.App)
		if err != nil {
			return nil, nil, err
		}
		art := sp.Build()
		return art.Mod, art.Outputs, nil
	}
	mod, err := ir.Parse(o.Module)
	if err != nil {
		return nil, nil, err
	}
	var outs []*ir.Global
	for _, name := range o.Outputs {
		for _, g := range mod.Globals {
			if g.Name == name {
				outs = append(outs, g)
			}
		}
	}
	return mod, outs, nil
}

// compileOp compiles the op's program with its analysis knobs.
func compileOp(o op, eng interp.Engine) (*core.Result, []*ir.Global, error) {
	mod, outs, err := opSource(o)
	if err != nil {
		return nil, nil, err
	}
	ccfg := core.DefaultConfig()
	if o.Kind == kindServedKnobs {
		ccfg.Gamma, ccfg.Budget = o.Gamma, o.Budget
	}
	ccfg.Interp.Engine = eng
	ccfg.Obs = obs.NewRegistry()
	res, err := core.Compile(mod, ccfg)
	return res, outs, err
}

// counters snapshots the daemon's registry together with obs.Default(),
// where the daemon's compiles report because serve.execute leaves
// core.Config.Obs nil. The metrics the traced run reads from the two do
// not share names.
func (b *servedBench) counters() *counters {
	c := newCounters()
	c.fold(b.reg)
	c.fold(obs.Default())
	return c
}

// layers derives the served workload's per-layer metrics from the
// traced pass: client phase timings, and the daemon's spans and counters
// as differences between the snapshots before and after the pass.
func (b *servedBench) layers(runs []opRun, before, after *counters) map[string]metric {
	var submit, first, stream, result []float64
	for _, p := range b.probes {
		submit = append(submit, ms(p.submit))
		first = append(first, ms(p.firstRecord))
		stream = append(stream, ms(p.stream))
		result = append(result, ms(p.result))
	}
	var trials, bytes float64
	for _, r := range runs {
		trials += float64(r.trials)
		bytes += float64(r.bytes)
	}
	n := float64(len(runs))
	deltaMean := func(name string) float64 {
		a, z := before.spans[name], after.spans[name]
		return ratio(z.TotalMS-a.TotalMS, float64(z.Count-a.Count))
	}
	return map[string]metric{
		"core.analyze_ms":            {deltaMean("compile/analyze"), "ms"},
		"core.finalize_ms":           {deltaMean("compile/finalize"), "ms"},
		"core.cache_miss_ratio":      {ratio(float64(after.c["compile.analyze.runs"]-before.c["compile.analyze.runs"]), n), "count"},
		"serve.compile_ms":           {deltaMean("serve/campaign/compile"), "ms"},
		"serve.submit_ms":            {median(submit), "ms"},
		"serve.first_record_ms":      {median(first), "ms"},
		"serve.stream_ms":            {median(stream), "ms"},
		"serve.result_ms":            {median(result), "ms"},
		"obs.ledger_bytes_per_trial": {ratio(bytes, trials), "count"},
	}
}
