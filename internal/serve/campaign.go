package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"encore/internal/sfi"
	"encore/internal/stats"
)

// Campaign lifecycle states, as reported by the status and result
// endpoints. A campaign is born running (admission happens before it
// exists) and settles in exactly one terminal state; the drain/cancel
// state machine is documented in DESIGN.md §13.
const (
	// StateRunning: admitted and executing (or waiting on the Gate seam).
	StateRunning = "running"
	// StateDone: every trial ran and the ledger is complete.
	StateDone = "done"
	// StateCanceled: canceled mid-flight; the ledger holds the completed
	// prefix and the result counts only executed trials.
	StateCanceled = "canceled"
	// StateFailed: compilation or the golden run failed; see the status
	// error field.
	StateFailed = "failed"
)

// campaign is one admitted request's full lifecycle: spec, cancelable
// context, ledger chunk buffer, and terminal state. The chunk buffer is
// the streaming seam — the campaign run's JSONL sink writes encoded
// records into it (one Write per record, in trial order), and any number
// of ledger followers replay the chunks concurrently, waking on the cond
// as the completed prefix grows.
type campaign struct {
	id      string
	tenant  string
	spec    campaignSpec
	ctx     context.Context
	cancel  context.CancelFunc
	started time.Time
	// est is the campaign's online estimator: the campaign run feeds it
	// every trial record in ledger order (before the record's trace chunk
	// is written), so the stats endpoints can snapshot per-region
	// convergence at any point and the final snapshot agrees exactly with
	// post-hoc attribution.
	est *stats.Estimator
	// golden tells how the campaign obtained its golden run (goldenFirst,
	// goldenMiss or goldenHit; empty when it never got that far), and
	// goldenMS how long its own golden run took (zero on a hit). Only the
	// campaign's runner goroutine touches them.
	golden   string
	goldenMS float64

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	errMsg string
	result *sfi.CampaignResult
	chunks [][]byte
	closed bool // no more chunks will arrive; followers can finish
}

func newCampaign(id, tenant string, spec campaignSpec) *campaign {
	ctx, cancel := context.WithCancel(context.Background())
	c := &campaign{
		id: id, tenant: tenant, spec: spec, ctx: ctx, cancel: cancel,
		started: time.Now(), est: stats.New(), state: StateRunning,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Write implements io.Writer for the campaign's JSONL trace sink: each
// call is one encoded ledger record (json.Encoder issues a single Write
// per Encode), appended to the chunk buffer and announced to followers.
// The byte stream is exactly the concatenation of the chunks, so
// followers reproduce the batch ledger byte for byte.
func (c *campaign) Write(p []byte) (int, error) {
	b := make([]byte, len(p))
	copy(b, p)
	c.mu.Lock()
	c.chunks = append(c.chunks, b)
	c.cond.Broadcast()
	c.mu.Unlock()
	return len(p), nil
}

// terminalState maps a campaign runner's error to the state it settles
// in and the status error message.
func terminalState(err error) (state, msg string) {
	switch {
	case err == nil:
		return StateDone, ""
	case errors.Is(err, context.Canceled):
		return StateCanceled, "canceled"
	default:
		return StateFailed, err.Error()
	}
}

// finishRun publishes the campaign's terminal state and its runner's
// result, and closes the ledger stream.
func (c *campaign) finishRun(res *sfi.CampaignResult, state, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.result, c.state, c.errMsg = res, state, msg
	c.closed = true
	c.cond.Broadcast()
}

// campaignResult returns the settled result (nil while running or after
// a compile failure).
func (c *campaign) campaignResult() *sfi.CampaignResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// status snapshots the campaign for the JSON API.
func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID: c.id, Tenant: c.tenant, App: c.spec.app, State: c.state,
		Trials: c.spec.trials, Seed: c.spec.seed, Dmax: c.spec.dmax,
		Engine: c.spec.ccfg.Interp.Engine.String(),
		Error:  c.errMsg,
	}
	if n := len(c.chunks) - 1; n > 0 { // first chunk is the header record
		st.LedgerRecords = n
	}
	if c.result != nil {
		st.Executed = c.result.Executed
	}
	return st
}

// follow streams the ledger to w from the beginning: already-buffered
// chunks replay immediately, then the follower blocks on the cond until
// new records arrive or the campaign settles. Each burst is flushed so
// chunked HTTP responses deliver records incrementally. Returns when the
// ledger is complete (campaign settled and every chunk written) or ctx
// is canceled (client went away).
func (c *campaign) follow(ctx context.Context, w io.Writer) {
	flusher, _ := w.(http.Flusher)
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	next := 0
	for {
		c.mu.Lock()
		for next >= len(c.chunks) && !c.closed && ctx.Err() == nil {
			c.cond.Wait()
		}
		burst := c.chunks[next:]
		next = len(c.chunks)
		closed := c.closed
		c.mu.Unlock()
		for _, chunk := range burst {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		if flusher != nil && len(burst) > 0 {
			flusher.Flush()
		}
		if (closed && len(burst) == 0) || ctx.Err() != nil {
			return
		}
	}
}

// followStats streams estimator snapshots to w as NDJSON: one snapshot
// immediately, then one each time at least every further trials have
// settled, then a final snapshot when the campaign settles (deduplicated
// if nothing changed since the last emission). Followers wake on the
// campaign cond — the same broadcast the ledger chunks ring — and the
// estimator is updated before each ledger chunk lands, so a woken
// follower always sees at least the trial whose chunk woke it. Only the
// final snapshot is held to the cross-shape byte-identity guarantee;
// intermediate ones sample live progress at whatever trial count they
// catch. Returns when the campaign settles or ctx is canceled.
func (c *campaign) followStats(ctx context.Context, w io.Writer, every int) {
	if every <= 0 {
		every = DefaultStatsStreamEvery
	}
	flusher, _ := w.(http.Flusher)
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	enc := json.NewEncoder(w)
	last := -1
	emit := func() bool {
		snap := c.est.Snapshot()
		if snap.Trials == last {
			return true // nothing settled since the previous snapshot
		}
		last = snap.Trials
		if err := enc.Encode(snap); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit() {
		return
	}
	for {
		c.mu.Lock()
		for ctx.Err() == nil && !c.closed && c.est.Trials() < last+every {
			c.cond.Wait()
		}
		closed := c.closed
		c.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if !emit() || closed {
			return
		}
	}
}
