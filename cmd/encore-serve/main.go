// Command encore-serve runs the multi-tenant campaign daemon: an
// HTTP/JSON service (internal/serve) that accepts concurrent
// fault-injection campaign submissions, streams each campaign's
// per-trial JSONL ledger incrementally, and enforces per-tenant
// admission budgets with 429 backpressure. Served ledgers are
// byte-identical to batch `encore-sfi -trace` output for the same
// (workload, config, seed).
//
// Usage:
//
//	encore-serve [-addr host:port] [-max-inflight n] [-tenant-inflight n]
//	             [-retry-after sec] [-workers n] [-engine fast|ref]
//	             [-checkpoints k] [-drain-timeout dur] [-stats-every n]
//	             [-adaptive-ci w] [-log-requests] [-pprof]
//
// The daemon prints "listening on http://ADDR" once the socket is bound
// (use -addr 127.0.0.1:0 for an ephemeral port) and serves the API
// documented in docs/API.md. Structured one-line JSON events (campaign
// accepted/settled, plus per-request logs with -log-requests) go to
// stderr; -pprof mounts net/http/pprof under /debug/pprof/. On
// SIGINT/SIGTERM it stops admitting campaigns (new submits answer 503),
// waits up to -drain-timeout for in-flight campaigns to finish, then
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"encore/internal/interp"
	"encore/internal/serve"
	"encore/internal/sfi"
)

func main() {
	if err := runServe(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "encore-serve:", err)
		os.Exit(1)
	}
}

// runServe is the whole command behind a testable seam: flags come from
// argv, logs go to logw, and a non-nil ready channel receives the bound
// address once the daemon is listening.
func runServe(argv []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("encore-serve", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		maxInflight  = fs.Int("max-inflight", 8192, "global in-flight trial budget across all campaigns")
		tenantMax    = fs.Int("tenant-inflight", 0, "per-tenant in-flight trial budget (0 = the global budget)")
		retryAfter   = fs.Int("retry-after", 1, "Retry-After hint in seconds for 429/503 responses")
		workers      = fs.Int("workers", 0, "default trial parallelism per campaign (0 = GOMAXPROCS)")
		engine       = fs.String("engine", "", "default execution engine: fast or ref")
		checkpoints  = fs.Int("checkpoints", sfi.DefaultCheckpoints, "default golden-run ladder target k for fork-from-checkpoint trials: k to 2k-1 rungs on a long run (0 = replay the full prefix)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight campaigns")
		statsEvery   = fs.Int("stats-every", 0, "default stats-stream cadence in settled trials (0 = built-in default)")
		adaptiveCI   = fs.Float64("adaptive-ci", 0, "default Wilson half-width target for adaptive campaigns (0 = sfi default; never enables adaptive by itself)")
		logRequests  = fs.Bool("log-requests", false, "log one JSON line per HTTP request")
		pprofFlag    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		return err
	}
	if *adaptiveCI < 0 {
		return fmt.Errorf("-adaptive-ci %g is negative: the target is a Wilson half-width", *adaptiveCI)
	}
	if *checkpoints < 0 {
		return fmt.Errorf("-checkpoints %d is negative (0 disables the snapshot ladder)", *checkpoints)
	}

	srv := serve.NewServer(serve.Config{
		MaxInFlightTrials:       *maxInflight,
		TenantMaxInFlightTrials: *tenantMax,
		RetryAfter:              time.Duration(*retryAfter) * time.Second,
		Workers:                 *workers,
		Engine:                  eng,
		Checkpoints:             *checkpoints,
		StatsEvery:              *statsEvery,
		AdaptiveCI:              *adaptiveCI,
		Log:                     logw,
		LogRequests:             *logRequests,
		Pprof:                   *pprofFlag,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "encore-serve: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case s := <-sig:
		fmt.Fprintf(logw, "encore-serve: %v: draining (timeout %s)\n", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(logw, "encore-serve: drain: %v; shutting down anyway\n", err)
	}
	return hs.Shutdown(ctx)
}
