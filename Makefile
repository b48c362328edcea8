GO ?= go
FUZZTIME ?= 10s
BENCH ?= BENCH_pr10.json

.PHONY: build test bench fuzz-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the repository micro-benchmarks and then regenerates the
# perf-trajectory record: $(BENCH) is the encore-bench -json report
# (quick mode), whose compile_ns/analyze_ns/finalize_ns fields expose the
# staged pipeline's analysis-reuse ratio across the full experiment run.
# Override the output with e.g. `make bench BENCH=BENCH_pr7.json` so each
# PR's record lands beside its predecessors instead of overwriting them.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test ./internal/core ./internal/idem -run '^$$' -bench '.' -benchmem
	$(GO) run ./cmd/encore-bench -quick -json $(BENCH) > /dev/null

# Short-budget run of the generative oracles (internal/progen), of the
# daemon's tenant-IR input boundary (internal/serve FuzzParse) and of the
# shard-ledger merge's permutation invariance (internal/sfi
# FuzzMergeCommutes): each fuzz target replays its checked-in corpus and
# then explores for FUZZTIME.
# Raise the budget for a deeper hunt: make fuzz-smoke FUZZTIME=5m
fuzz-smoke:
	$(GO) test ./internal/progen -run '^$$' -fuzz '^FuzzIdempotence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/progen -run '^$$' -fuzz '^FuzzRecovery$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/progen -run '^$$' -fuzz '^FuzzEngines$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sfi -run '^$$' -fuzz '^FuzzMergeCommutes$$' -fuzztime $(FUZZTIME)

# Full health gate: gofmt, vet, build, tests, the race detector over the
# concurrent packages, and the fuzz smoke. See scripts/check.sh.
check:
	sh scripts/check.sh
