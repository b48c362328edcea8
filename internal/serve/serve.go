// Package serve implements encore-serve's campaign daemon: an HTTP/JSON
// service that accepts concurrent fault-injection campaign requests
// (workload or inline IR module, plus the γ/η/Pmin/Dmax/engine/seed
// knobs), compiles them through the core.Analyze/Instrument split behind
// a keyed core.SnapshotCache, keeps repeat requests' golden runs
// (sfi.Prepare) in a prepared-campaign cache, schedules trials as
// sharded batches on the shared internal/workpool, and streams each
// campaign's sfi.TrialRecord JSONL ledger back incrementally over a
// chunked response.
//
// Determinism invariant: a served ledger is byte-identical to batch
// `encore-sfi -trace` output for the same (workload, config, seed) at
// any worker count, from a cached golden run or not — the daemon reuses
// sfi.RunCampaign's incremental trial-order emission, as sfi.Prepare
// and (*sfi.Golden).Run, rather than re-implementing campaign
// execution, so equality holds by construction and is locked by the
// package tests and scripts/check.sh's cmp smoke.
//
// Multi-tenancy and backpressure: every request carries a tenant (the
// X-Encore-Tenant header; empty means "default"), and admission charges
// the campaign's trial count against a global and a per-tenant in-flight
// budget. Exhausted budgets answer 429 with a Retry-After hint; a
// draining server answers 503. See docs/API.md for the full endpoint
// reference and DESIGN.md §13 for the architecture.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"encore/internal/core"
	"encore/internal/interp"
	"encore/internal/ir"
	"encore/internal/obs"
	"encore/internal/sfi"
)

// DefaultStatsStreamEvery is the stats-stream snapshot cadence when
// neither the request's ?every query parameter nor Config.StatsEvery
// names one: a snapshot per this many settled trials.
const DefaultStatsStreamEvery = 32

// Config parametrizes a Server. The zero value is usable: it serves the
// default engine with a 4096-trial global budget shared by all tenants.
type Config struct {
	// MaxInFlightTrials is the global admission budget: the sum of the
	// trial counts of every in-flight campaign may not exceed it. Zero
	// selects 4096. A request larger than the budget can never be
	// admitted and is rejected outright (400 too-large).
	MaxInFlightTrials int
	// TenantMaxInFlightTrials bounds one tenant's share of the budget.
	// Zero (or a value above MaxInFlightTrials) selects the global
	// budget, i.e. no per-tenant subdivision.
	TenantMaxInFlightTrials int
	// RetryAfter is the hint returned in 429/503 Retry-After headers.
	// Zero selects one second.
	RetryAfter time.Duration
	// Workers is the default trial parallelism for campaigns that do not
	// request their own; zero defers to workpool.Clamp (GOMAXPROCS,
	// capped by the trial count).
	Workers int
	// Engine is the default interpreter engine for campaigns that do not
	// name one. Ledgers are engine-invariant; this only moves throughput.
	Engine interp.Engine
	// Checkpoints is the default golden-run ladder target for
	// campaigns that do not request their own (requests may pass an
	// explicit 0 to disable forking). Ledgers are
	// checkpoint-count-invariant; this only moves throughput.
	Checkpoints int
	// Obs selects the metrics registry for the serve/campaign spans, the
	// serve.campaigns.* admission counters, the serve.inflight.* gauges,
	// the serve.prepared.* cache metrics, and each campaign's compile
	// and sfi metrics. Nil selects obs.Default().
	Obs *obs.Registry
	// StatsEvery is the default stats-stream snapshot cadence (one
	// snapshot per StatsEvery settled trials); zero selects
	// DefaultStatsStreamEvery. Requests override it with ?every=N.
	StatsEvery int
	// Log, when non-nil, receives structured JSONL event logs: one line
	// per accepted campaign (campaign_accepted), one per settled campaign
	// (campaign_settled, carrying the trial count, outcome histogram, how
	// the golden run was obtained and its cost, and wall time), and —
	// with LogRequests — one per HTTP request. Lines
	// are written whole under a lock, so a shared writer never
	// interleaves.
	Log io.Writer
	// LogRequests additionally logs every HTTP request (method, path,
	// status, duration, tenant) to Log. Off by default because streaming
	// followers make request logs chatty.
	LogRequests bool
	// AdaptiveCI is the server-default convergence half-width target for
	// campaigns that request adaptive stopping without naming their own
	// adaptive_ci. Zero defers to sfi.DefaultTargetCI. It never turns
	// adaptive stopping on by itself; each campaign opts in.
	AdaptiveCI float64
	// Pprof mounts net/http/pprof's profile handlers under /debug/pprof/
	// on the daemon mux. Off by default: profiles expose internals and
	// cost CPU, so production deployments opt in.
	Pprof bool
	// Gate, when non-nil, is called by each campaign's runner goroutine
	// after admission and before compilation, with the campaign's
	// cancelable context and ID. It is a test seam: a blocking Gate holds
	// the campaign's budget without burning CPU, making quota, drain, and
	// cancellation states deterministic to assert. Production servers
	// leave it nil.
	Gate func(ctx context.Context, id string)
}

// Server is the campaign daemon: an http.Handler exposing the campaign
// lifecycle (submit/status/cancel/ledger/result), /metrics, and /healthz,
// plus a Drain method for graceful shutdown. Create with NewServer.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	cache    *core.SnapshotCache
	prepared *preparedCache
	adm      *admission
	mux      *http.ServeMux
	log      *logger

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when a campaign finishes (Drain waits)
	draining  bool
	nextID    int
	inflight  int
	campaigns map[string]*campaign
}

// NewServer returns a ready-to-serve daemon for cfg.
func NewServer(cfg Config) *Server {
	if cfg.MaxInFlightTrials <= 0 {
		cfg.MaxInFlightTrials = 4096
	}
	if cfg.TenantMaxInFlightTrials <= 0 || cfg.TenantMaxInFlightTrials > cfg.MaxInFlightTrials {
		cfg.TenantMaxInFlightTrials = cfg.MaxInFlightTrials
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.StatsEvery <= 0 {
		cfg.StatsEvery = DefaultStatsStreamEvery
	}
	reg := obs.Or(cfg.Obs)
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		cache:     core.NewSnapshotCache(),
		prepared:  newPreparedCache(reg),
		adm:       newAdmission(cfg.MaxInFlightTrials, cfg.TenantMaxInFlightTrials, reg.Gauge("serve.inflight.trials")),
		log:       newLogger(cfg.Log),
		campaigns: map[string]*campaign{},
	}
	s.cond = sync.NewCond(&s.mu)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/ledger", s.handleLedger)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/campaigns/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /v1/campaigns/{id}/stats/stream", s.handleStatsStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler by dispatching to the v1 API routes,
// with per-request structured logging when Config.LogRequests is set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.LogRequests || s.log == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.log.event("request", map[string]any{
		"method": r.Method, "path": r.URL.Path, "status": sw.code,
		"dur_ms": float64(time.Since(start).Microseconds()) / 1000,
		"tenant": tenantOf(r),
	})
}

// statusWriter records the response status for request logs while
// passing Flush through so streaming endpoints keep working under the
// logging wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status code.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush implements http.Flusher by delegating when the wrapped writer
// supports it, so chunked ledger/stats streams flush incrementally.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logger serializes structured JSONL event logs: one JSON object per
// line, written whole under a mutex so concurrent handlers never
// interleave. A nil logger (no Config.Log) no-ops.
type logger struct {
	mu sync.Mutex
	w  io.Writer
}

func newLogger(w io.Writer) *logger {
	if w == nil {
		return nil
	}
	return &logger{w: w}
}

// event writes one log line: {"ts":..., "event":..., ...fields}.
func (l *logger) event(event string, fields map[string]any) {
	if l == nil {
		return
	}
	line := map[string]any{
		"ts":    time.Now().UTC().Format(time.RFC3339Nano),
		"event": event,
	}
	for k, v := range fields {
		line[k] = v
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	l.mu.Lock()
	l.w.Write(raw)
	l.mu.Unlock()
}

// Drain stops admitting campaigns (new submits answer 503) and blocks
// until every in-flight campaign finishes or ctx expires, returning
// ctx's error in the latter case. In-flight trials always run to their
// natural completion; Drain never cancels work.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.inflight > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	return ctx.Err()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("serve.campaigns.submitted").Inc()
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// A misspelled knob must not silently run a default campaign.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("decode request: %v", err), 0)
		return
	}
	spec, err := req.normalize(s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	if spec.trials > s.cfg.TenantMaxInFlightTrials {
		writeError(w, http.StatusBadRequest, "too-large",
			fmt.Sprintf("campaign wants %d trials but the admission budget caps at %d; split the seed range across smaller campaigns",
				spec.trials, s.cfg.TenantMaxInFlightTrials), 0)
		return
	}
	tenant := tenantOf(r)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter("serve.campaigns.rejected_draining").Inc()
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; resubmit elsewhere", s.cfg.RetryAfter)
		return
	}
	if !s.adm.tryAcquire(tenant, spec.trials) {
		s.mu.Unlock()
		s.reg.Counter("serve.campaigns.rejected_quota").Inc()
		writeError(w, http.StatusTooManyRequests, "quota",
			fmt.Sprintf("in-flight trial budget exhausted for tenant %q; retry later", tenant), s.cfg.RetryAfter)
		return
	}
	s.nextID++
	id := fmt.Sprintf("c%06d", s.nextID)
	c := newCampaign(id, tenant, spec)
	s.campaigns[id] = c
	s.inflight++
	s.mu.Unlock()

	s.reg.Counter("serve.campaigns.accepted").Inc()
	s.reg.Gauge("serve.inflight.campaigns").Add(1)
	s.log.event("campaign_accepted", map[string]any{
		"campaign": id, "tenant": tenant, "app": spec.app,
		"trials": spec.trials, "seed": spec.seed, "dmax": spec.dmax,
		"engine": spec.ccfg.Interp.Engine.String(),
	})
	go s.run(c)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(c.status())
}

// run executes one admitted campaign end to end and settles its state.
// It owns the campaign's slice of the admission budget until the run is
// over, and returns it before the settled state becomes visible: a
// client that sees the campaign settle may resubmit at once. The settle
// counters and log line also come first, so that client finds them. A
// panic on the campaign's goroutine fails that campaign alone: it is
// logged with its stack (campaign_panic) and settles like any other
// error, so the budget is released and the daemon keeps serving.
func (s *Server) run(c *campaign) {
	res, err := func() (res *sfi.CampaignResult, err error) {
		defer func() {
			if p := recover(); p != nil {
				s.reg.Counter("serve.campaigns.panicked").Inc()
				s.log.event("campaign_panic", map[string]any{
					"campaign": c.id, "tenant": c.tenant, "app": c.spec.app,
					"panic": fmt.Sprint(p), "stack": string(debug.Stack()),
				})
				res, err = nil, fmt.Errorf("campaign panicked: %v", p)
			}
		}()
		return s.execute(c)
	}()
	c.cancel() // release the context's resources; the run is over
	s.adm.release(c.tenant, c.spec.trials)
	state, msg := terminalState(err)
	s.finish(c, res, state)
	c.finishRun(res, state, msg)
	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// execute obtains the campaign's compile result and golden run from the
// prepared-campaign cache, or prepares them, and runs its trials on
// them, streaming the ledger into the campaign's chunk buffer as the
// completed prefix grows.
func (s *Server) execute(c *campaign) (*sfi.CampaignResult, error) {
	sp := s.reg.Span("serve/campaign")
	defer sp.End()
	if s.cfg.Gate != nil {
		s.cfg.Gate(c.ctx, c.id)
	}
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	res, gold, how, err := s.prepared.get(c.spec.key, func() (*core.Result, *sfi.Golden, error) {
		return s.prepare(c, sp)
	})
	c.golden = how
	if err != nil {
		return nil, err
	}

	tsp := sp.Child("trials")
	defer tsp.End()
	return gold.Run(sfi.CampaignConfig{
		Trials: c.spec.trials, Seed: c.spec.seed, Dmax: c.spec.dmax, Bits: c.spec.bits,
		Workers: c.spec.workers, Engine: c.spec.ccfg.Interp.Engine, Obs: s.reg,
		App: c.spec.app, Regions: RegionTable(res, c.spec.dmax),
		Trace:       obs.NewJSONLSink(c),
		Stats:       c.est,
		Ctx:         c.ctx,
		Stop:        c.spec.stop,
		Checkpoints: c.spec.checkpoints,
	})
}

// prepare compiles the campaign's source (through the shared snapshot
// cache) under the serve/campaign/compile span and runs its golden run
// under serve/campaign/golden, whose duration the campaign keeps for its
// settle log.
func (s *Server) prepare(c *campaign, sp *obs.Span) (*core.Result, *sfi.Golden, error) {
	csp := sp.Child("compile")
	res, outs, err := s.compile(c)
	csp.End()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	gsp := sp.Child("golden")
	gold, err := sfi.Prepare(res.Mod, res.Metas, outs, c.spec.ccfg.Interp.Engine, c.spec.checkpoints, s.reg)
	gsp.End()
	c.goldenMS = float64(time.Since(start).Microseconds()) / 1000
	return res, gold, err
}

// compile builds the campaign's module, replays the cached analysis onto
// it and instruments it. Campaigns read no measured field, and the
// golden run executes the instrumented module anyway, so Finalize's
// measurement run is skipped.
func (s *Server) compile(c *campaign) (*core.Result, []*ir.Global, error) {
	ccfg := c.spec.ccfg
	ccfg.Obs = s.reg
	snap, err := s.cache.Get(c.spec.source, ccfg, func() (*core.Analysis, error) {
		mod, _, err := c.spec.build()
		if err != nil {
			return nil, err
		}
		return core.Analyze(mod, ccfg)
	})
	if err != nil {
		return nil, nil, err
	}
	mod, outs, err := c.spec.build()
	if err != nil {
		return nil, nil, err
	}
	a, err := snap.Replay(mod)
	if err != nil {
		return nil, nil, err
	}
	res, err := a.Instrument(ccfg)
	return res, outs, err
}

// finish counts and logs a campaign's settle once its runner is done.
func (s *Server) finish(c *campaign, res *sfi.CampaignResult, state string) {
	s.reg.Gauge("serve.inflight.campaigns").Add(-1)
	switch state {
	case StateDone:
		s.reg.Counter("serve.campaigns.completed").Inc()
	case StateCanceled:
		s.reg.Counter("serve.campaigns.canceled").Inc()
	default:
		s.reg.Counter("serve.campaigns.failed").Inc()
	}
	// One-line settle summary: id, tenant, state, trial counts, outcome
	// histogram, how the golden run was obtained and what it cost, and
	// wall time — completion is loggable, not poll-only.
	outcomes := map[string]int{}
	for _, oc := range c.est.Snapshot().Outcomes {
		outcomes[oc.Outcome] = oc.Count
	}
	executed := 0
	if res != nil {
		executed = res.Executed
	}
	fields := map[string]any{
		"campaign": c.id, "tenant": c.tenant, "app": c.spec.app,
		"state": state, "trials": c.spec.trials, "executed": executed,
		"outcomes": outcomes,
		"wall_ms":  float64(time.Since(c.started).Microseconds()) / 1000,
	}
	if c.golden != "" {
		fields["golden"], fields["golden_ms"] = c.golden, c.goldenMS
	}
	s.log.event("campaign_settled", fields)
}

// lookup resolves the request's {id} to a campaign or answers 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *campaign {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, "not-found", fmt.Sprintf("no campaign %q", id), 0)
	}
	return c
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		list = append(list, c)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	out := struct {
		Campaigns []CampaignStatus `json:"campaigns"`
	}{Campaigns: make([]CampaignStatus, len(list))}
	for i, c := range list {
		out.Campaigns[i] = c.status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	c.cancel() // no-op after the run settles; cancel is idempotent
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.status())
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	c.follow(r.Context(), w)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	st := c.status()
	if st.State == StateRunning {
		writeError(w, http.StatusConflict, "not-finished",
			fmt.Sprintf("campaign %s is still running; poll status or stream the ledger", c.id), s.cfg.RetryAfter)
		return
	}
	out := ResultResponse{CampaignStatus: st, Counts: map[string]int{}}
	if res := c.campaignResult(); res != nil {
		out.SameInstance = res.SameInstance
		out.RecoveredRate = res.RecoveredRate()
		out.Skipped = res.Skipped
		for o := sfi.Outcome(0); o < sfi.Outcome(len(res.Counts)); o++ {
			out.Counts[o.String()] = res.Counts[o]
		}
		// A returned result means the estimator received the header.
		out.PredCoverage = c.est.Snapshot().PredCoverage
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.est.Snapshot())
}

func (s *Server) handleStatsStream(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	every := s.cfg.StatsEvery
	if v := r.URL.Query().Get("every"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad-request",
				fmt.Sprintf("every=%q: want a positive trial count", v), 0)
			return
		}
		every = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	c.followStats(r.Context(), w, every)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.Snapshot().WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.Snapshot().WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", s.cfg.RetryAfter)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
