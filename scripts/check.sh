#!/bin/sh
# Repository health gate: formatting, vet, doc-comment lint, the full
# test suite, the race detector over the packages that run concurrent
# machinery (the interpreter's shared closure-compiled programs, the obs
# registry, the compiler's per-function analysis fan-out, the SFI trial
# pool, the campaign daemon, and the experiments compile cache / worker
# pool), a short-budget run of the fuzz targets (the generative oracles
# in internal/progen, the daemon's tenant-IR boundary, FuzzParse in
# internal/serve, and the shard-ledger merge, FuzzMergeCommutes in
# internal/sfi), plus command smoke runs that exercise the
# observability flags end to end — including a check that metrics
# counters are identical under ENCORE_WORKERS=1 and the default pool,
# that the default engine reproduces the reference engine's output bit
# for bit across the full workload suite, the metrics counters of one
# compile (instruction, checkpoint and profile totals) and the SFI trial
# ledger, and
# that the encore-serve daemon's streamed campaign ledger is
# byte-identical to the batch encore-sfi -trace ledger for the same
# (workload, config, seed) on a key's first sight, on the submit that
# admits it to the prepared-campaign cache and on a cache hit (one miss
# and one hit on /metrics), after the same daemon has answered a
# malformed tenant module with 400 bad-request, and that the daemon's
# /result counts every trial executed and reports the ledger header's
# predicted coverage. The telemetry smokes additionally check that
# encore-sfi -stats output is byte-identical across worker counts and
# engines, and that the Prometheus expositions (CLI -prom and the
# daemon's /metrics?format=prom) pass scripts/promlint.go. The campaign
# smokes additionally check that a 3-shard -shard/-merge split
# reproduces the single-process ledger, stats and -report -json
# attribution byte for byte, that
# shard 7/1000 of a million-trial campaign writes the same ledger and
# stats at -workers 1 and 4 (plans by formula, the bounded drain window
# under several workers), that -adaptive stopping elides the same trials
# regardless of worker count and engine, also with 16-trial rounds at
# -workers 4 (the round gate across many round boundaries), that
# fork-from-checkpoint trials (-checkpoints 1, 16 and
# 64, on rawcaudio and 164.gzip) leave the trial ledger byte-identical
# to full golden-prefix replay, and that
# laddered trials still end early at golden rungs. The masking smokes
# check that the raw-strike study's table is identical on the reference
# engine, and that a runaway masking strike stops at the trial budget
# derived from the golden run (a non-zero sfi.hang.count).
#
# Usage: scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> doclint (package comments + obs/serve/stats/trace/workpool godoc)"
go run scripts/doclint.go

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./internal/interp ./internal/obs ./internal/core ./internal/sfi ./internal/serve ./internal/workpool ./internal/experiments ./internal/trace ./internal/stats ./internal/ci ./internal/progen"
go test -race ./internal/interp ./internal/obs ./internal/core ./internal/sfi ./internal/serve ./internal/workpool ./internal/experiments ./internal/trace ./internal/stats ./internal/ci ./internal/progen

echo "==> fuzz smoke (generative oracles, FuzzParse and FuzzMergeCommutes, ${FUZZTIME:-10s} per target)"
make -s fuzz-smoke FUZZTIME="${FUZZTIME:-10s}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> build command binaries"
go build -o "$tmp/encore" ./cmd/encore
go build -o "$tmp/encore-bench" ./cmd/encore-bench
go build -o "$tmp/encore-sfi" ./cmd/encore-sfi
go build -o "$tmp/encore-serve" ./cmd/encore-serve

echo "==> flag surface (-h must document the observability flags)"
"$tmp/encore" -h 2>&1 | grep -q -- '-metrics' || { echo "encore -h: missing -metrics" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-metrics' || { echo "encore-sfi -h: missing -metrics" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-progress' || { echo "encore-sfi -h: missing -progress" >&2; exit 1; }
"$tmp/encore-bench" -h 2>&1 | grep -q -- '-metrics' || { echo "encore-bench -h: missing -metrics" >&2; exit 1; }
"$tmp/encore-bench" -h 2>&1 | grep -q -- '-cpuprofile' || { echo "encore-bench -h: missing -cpuprofile" >&2; exit 1; }
"$tmp/encore-bench" -h 2>&1 | grep -q -- '-memprofile' || { echo "encore-bench -h: missing -memprofile" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-trace' || { echo "encore-sfi -h: missing -trace" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-report' || { echo "encore-sfi -h: missing -report" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-chrometrace' || { echo "encore-sfi -h: missing -chrometrace" >&2; exit 1; }
"$tmp/encore-bench" -h 2>&1 | grep -q -- '-chrometrace' || { echo "encore-bench -h: missing -chrometrace" >&2; exit 1; }
"$tmp/encore" -h 2>&1 | grep -q -- '-chrometrace' || { echo "encore -h: missing -chrometrace" >&2; exit 1; }
"$tmp/encore" -h 2>&1 | grep -q -- '-engine' || { echo "encore -h: missing -engine" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-engine' || { echo "encore-sfi -h: missing -engine" >&2; exit 1; }
"$tmp/encore-bench" -h 2>&1 | grep -q -- '-engine' || { echo "encore-bench -h: missing -engine" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-max-inflight' || { echo "encore-serve -h: missing -max-inflight" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-drain-timeout' || { echo "encore-serve -h: missing -drain-timeout" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-stats' || { echo "encore-sfi -h: missing -stats" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-prom' || { echo "encore-sfi -h: missing -prom" >&2; exit 1; }
"$tmp/encore" -h 2>&1 | grep -q -- '-prom' || { echo "encore -h: missing -prom" >&2; exit 1; }
"$tmp/encore-bench" -h 2>&1 | grep -q -- '-prom' || { echo "encore-bench -h: missing -prom" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-pprof' || { echo "encore-serve -h: missing -pprof" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-log-requests' || { echo "encore-serve -h: missing -log-requests" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-stats-every' || { echo "encore-serve -h: missing -stats-every" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-shard' || { echo "encore-sfi -h: missing -shard" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-merge' || { echo "encore-sfi -h: missing -merge" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-adaptive' || { echo "encore-sfi -h: missing -adaptive" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-reuse' || { echo "encore-sfi -h: missing -reuse" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-adaptive-ci' || { echo "encore-serve -h: missing -adaptive-ci" >&2; exit 1; }
"$tmp/encore-sfi" -h 2>&1 | grep -q -- '-checkpoints' || { echo "encore-sfi -h: missing -checkpoints" >&2; exit 1; }
"$tmp/encore-serve" -h 2>&1 | grep -q -- '-checkpoints' || { echo "encore-serve -h: missing -checkpoints" >&2; exit 1; }

echo "==> smoke: encore"
"$tmp/encore" -app rawcaudio -metrics "$tmp/encore.json" > /dev/null
grep -q '"compile.runs"' "$tmp/encore.json" || { echo "encore -metrics: no compile.runs counter" >&2; exit 1; }

echo "==> smoke: encore-sfi"
"$tmp/encore-sfi" -app rawdaudio -trials 20 -progress -metrics "$tmp/sfi.json" > /dev/null 2>"$tmp/sfi.progress"
grep -q '"sfi.trials"' "$tmp/sfi.json" || { echo "encore-sfi -metrics: no sfi.trials counter" >&2; exit 1; }
grep -q 'campaign' "$tmp/sfi.progress" || { echo "encore-sfi -progress: no progress line on stderr" >&2; exit 1; }

echo "==> smoke: encore-sfi trial ledger + attribution report"
"$tmp/encore-sfi" -app rawcaudio -trials 5 -trace - > "$tmp/trace.jsonl" 2>/dev/null
lines=$(wc -l < "$tmp/trace.jsonl")
[ "$lines" -eq 6 ] || { echo "encore-sfi -trace -: want 6 JSONL lines (1 header + 5 trials), got $lines" >&2; exit 1; }
grep -q '"type":"campaign"' "$tmp/trace.jsonl" || { echo "encore-sfi -trace: no campaign header" >&2; exit 1; }
"$tmp/encore-sfi" -report "$tmp/trace.jsonl" > "$tmp/report.txt"
grep -q 'measured same-instance' "$tmp/report.txt" || { echo "encore-sfi -report: no coverage line" >&2; exit 1; }
grep -q '|err|' "$tmp/report.txt" || { echo "encore-sfi -report: no abs-error column" >&2; exit 1; }
"$tmp/encore-sfi" -trace "$tmp/trace2.jsonl" -app rawcaudio -trials 5 > /dev/null
cmp -s "$tmp/trace.jsonl" "$tmp/trace2.jsonl" || { echo "encore-sfi -trace: not byte-identical across runs" >&2; exit 1; }

echo "==> smoke: default engine identical to -engine ref across the full workload suite and in compile counters"
# The per-app report covers measured overhead, checkpoint traffic, and
# region selection for all 23 workloads: any divergence between engines
# in counting, checkpointing, or profiling shows up as a report diff.
"$tmp/encore" > "$tmp/report-fast.txt"
"$tmp/encore" -engine ref > "$tmp/report-ref.txt"
cmp -s "$tmp/report-fast.txt" "$tmp/report-ref.txt" || {
	echo "encore: default engine report differs from -engine ref:" >&2
	diff "$tmp/report-fast.txt" "$tmp/report-ref.txt" >&2 || true
	exit 1
}
# The counters section holds the instruction and checkpoint totals and
# the profile's block and edge executions, which both engines count when
# a block's terminator retires; a fault-free compile makes no handoff on
# either engine.
for e in fast ref; do
	"$tmp/encore" -app 175.vpr -engine "$e" -metrics "$tmp/vpr-$e.json" > /dev/null
	sed -n '/"counters"/,/\]/p' "$tmp/vpr-$e.json" > "$tmp/vpr-counters-$e.txt"
done
cmp -s "$tmp/vpr-counters-fast.txt" "$tmp/vpr-counters-ref.txt" || {
	echo "encore -app 175.vpr -metrics: counters differ between default engine and -engine ref:" >&2
	diff "$tmp/vpr-counters-fast.txt" "$tmp/vpr-counters-ref.txt" >&2 || true
	exit 1
}

echo "==> smoke: -engine ref reproduces the SFI trial ledger byte for byte"
"$tmp/encore-sfi" -app rawcaudio -trials 5 -engine ref -trace "$tmp/trace-ref.jsonl" > /dev/null
cmp -s "$tmp/trace.jsonl" "$tmp/trace-ref.jsonl" || { echo "encore-sfi -engine ref: trial ledger differs from default engine" >&2; exit 1; }

echo "==> smoke: checkpoint-ladder ledger byte-identical to full-replay"
# Fork-from-checkpoint trials restore a golden-run snapshot instead of
# replaying the whole prefix; the trial ledger must not move by a byte
# between a ladder-free run and any ladder the golden pass captures:
# target 1 (thinned at every rung), 16 (the default) and 64 (thinned
# exactly once on both runs), on a shorter and a longer program.
for a in rawcaudio 164.gzip; do
	"$tmp/encore-sfi" -app "$a" -trials 20 -seed 3 -checkpoints 0 -trace "$tmp/ck0-$a.jsonl" > /dev/null
	for k in 1 16 64; do
		"$tmp/encore-sfi" -app "$a" -trials 20 -seed 3 -checkpoints "$k" -trace "$tmp/ck$k-$a.jsonl" > /dev/null
		cmp -s "$tmp/ck0-$a.jsonl" "$tmp/ck$k-$a.jsonl" || {
			echo "encore-sfi -app $a -checkpoints: ledger differs between 0 and $k:" >&2
			diff "$tmp/ck0-$a.jsonl" "$tmp/ck$k-$a.jsonl" >&2 || true
			exit 1
		}
	done
done

echo "==> smoke: laddered trials end early at golden rungs"
# A trial whose settled fault rejoins the golden run ends at the next
# rung. Every ledger cmp above holds whether or not that happens, so
# check that it does: a non-zero sfi.reconverge.count.
"$tmp/encore-sfi" -app 175.vpr -trials 40 -checkpoints 16 -metrics - > "$tmp/reconv.out"
grep -A1 '"sfi.reconverge.count"' "$tmp/reconv.out" | grep -q '"value": [1-9]' || {
	echo "encore-sfi -checkpoints 16: sfi.reconverge.count is zero or missing (early exit off?)" >&2
	exit 1
}

echo "==> smoke: encore-sfi -masking table identical on -engine ref"
# The masking study forks its strikes from the ladder and ends them at
# golden rungs on the default engine; runs pinned to the reference loop
# never end early, so the two tables must still match.
for a in epic 175.vpr; do
	"$tmp/encore-sfi" -app "$a" -trials 60 -seed 7 -masking >> "$tmp/mask-fast.txt"
	"$tmp/encore-sfi" -app "$a" -trials 60 -seed 7 -masking -engine ref >> "$tmp/mask-ref.txt"
done
cmp -s "$tmp/mask-fast.txt" "$tmp/mask-ref.txt" || {
	echo "encore-sfi -masking: table differs between default engine and -engine ref:" >&2
	diff "$tmp/mask-fast.txt" "$tmp/mask-ref.txt" >&2 || true
	exit 1
}

echo "==> smoke: a runaway masking strike stops at the trial budget"
# Trial 80 of unepic's seed-1234 masking study flips a loop counter and
# never ends; it must trap at the budget derived from the golden run
# rather than run to the interpreter's 2^32 default.
"$tmp/encore-sfi" -app unepic -masking -seed 1234 -trials 150 -metrics - > "$tmp/hang.out"
grep -A1 '"sfi.hang.count"' "$tmp/hang.out" | grep -q '"value": [1-9]' || {
	echo "encore-sfi -masking: sfi.hang.count is zero or missing (trial budget off?)" >&2
	exit 1
}

echo "==> smoke: encore-sfi -stats byte-identical across workers and engines"
# The online estimator snapshot must not depend on trial parallelism or
# the execution engine — only on the (workload, config, seed) prefix.
"$tmp/encore-sfi" -app rawcaudio -trials 12 -workers 1 -stats "$tmp/stats-w1.json" > /dev/null
"$tmp/encore-sfi" -app rawcaudio -trials 12 -workers 4 -stats "$tmp/stats-w4.json" > /dev/null
"$tmp/encore-sfi" -app rawcaudio -trials 12 -workers 4 -engine ref -stats "$tmp/stats-ref.json" > /dev/null
cmp -s "$tmp/stats-w1.json" "$tmp/stats-w4.json" || { echo "encore-sfi -stats: differs between -workers 1 and 4" >&2; exit 1; }
cmp -s "$tmp/stats-w1.json" "$tmp/stats-ref.json" || { echo "encore-sfi -stats: differs between default and ref engines" >&2; exit 1; }
grep -q '"worst_ci_half_width"' "$tmp/stats-w1.json" || { echo "encore-sfi -stats: no worst_ci_half_width field" >&2; exit 1; }

echo "==> smoke: 3-shard merged ledger, stats and report byte-identical to single process"
# Deterministic trial-space sharding: three -shard i/3 runs of the same
# (workload, trials, seed) campaign, merged with -merge, must reproduce
# the single-process ledger and stats snapshot byte for byte, and the
# merged ledger's -report -json the single ledger's.
"$tmp/encore-sfi" -app rawdaudio -trials 30 -seed 4 -trace "$tmp/whole.jsonl" -stats "$tmp/whole-stats.json" > /dev/null
for i in 1 2 3; do
	"$tmp/encore-sfi" -app rawdaudio -trials 30 -seed 4 -shard "$i/3" -trace "$tmp/shard$i.jsonl" > /dev/null
done
"$tmp/encore-sfi" -merge -trace "$tmp/merged.jsonl" -stats "$tmp/merged-stats.json" \
	"$tmp/shard2.jsonl" "$tmp/shard3.jsonl" "$tmp/shard1.jsonl"
cmp -s "$tmp/whole.jsonl" "$tmp/merged.jsonl" || {
	echo "encore-sfi -merge: merged ledger differs from single-process ledger:" >&2
	diff "$tmp/whole.jsonl" "$tmp/merged.jsonl" >&2 || true
	exit 1
}
cmp -s "$tmp/whole-stats.json" "$tmp/merged-stats.json" || {
	echo "encore-sfi -merge: merged stats differ from single-process stats:" >&2
	diff "$tmp/whole-stats.json" "$tmp/merged-stats.json" >&2 || true
	exit 1
}
"$tmp/encore-sfi" -report "$tmp/whole.jsonl" -json > "$tmp/whole-report.json"
"$tmp/encore-sfi" -report "$tmp/merged.jsonl" -json > "$tmp/merged-report.json"
cmp -s "$tmp/whole-report.json" "$tmp/merged-report.json" || {
	echo "encore-sfi -report -json: merged ledger's report differs from the single ledger's:" >&2
	diff "$tmp/whole-report.json" "$tmp/merged-report.json" >&2 || true
	exit 1
}

echo "==> smoke: shard 7/1000 of a million-trial campaign identical at 1 and 4 workers"
# Trial plans are pure functions of (seed, trial) and finished records
# wait in a window of a few shards per worker, so this shard runs its
# 1000 trials from index 6000 with no per-trial table, and four workers
# through the window must emit exactly the one-worker ledger and stats.
for w in 1 4; do
	"$tmp/encore-sfi" -app rawcaudio -trials 1000000 -shard 7/1000 -workers "$w" \
		-trace "$tmp/big-w$w.jsonl" -stats "$tmp/big-stats-w$w.json" > /dev/null
done
lines=$(wc -l < "$tmp/big-w1.jsonl")
[ "$lines" -eq 1001 ] || { echo "encore-sfi -shard 7/1000: want 1001 JSONL lines (1 header + 1000 trials), got $lines" >&2; exit 1; }
cmp -s "$tmp/big-w1.jsonl" "$tmp/big-w4.jsonl" || { echo "encore-sfi -shard 7/1000: ledger differs between -workers 1 and 4" >&2; exit 1; }
cmp -s "$tmp/big-stats-w1.json" "$tmp/big-stats-w4.json" || { echo "encore-sfi -shard 7/1000: stats differ between -workers 1 and 4" >&2; exit 1; }

echo "==> smoke: adaptive stopping deterministic across workers and engines"
# The stopper folds each record as the trial-order drain passes it and
# rescores as the drain passes a round's last trial; a trial decides
# once the drain has reached its round, so the elided ledger must not
# depend on parallelism or engine. The 16-trial rounds at -workers 4
# hold workers at the round gate across many round boundaries.
"$tmp/encore-sfi" -app g721encode -trials 300 -seed 7 -adaptive -adaptive-ci 0.12 -trace "$tmp/adapt-a.jsonl" > "$tmp/adapt-a.txt"
"$tmp/encore-sfi" -app g721encode -trials 300 -seed 7 -adaptive -adaptive-ci 0.12 -workers 1 -engine ref -trace "$tmp/adapt-b.jsonl" > /dev/null
cmp -s "$tmp/adapt-a.jsonl" "$tmp/adapt-b.jsonl" || {
	echo "encore-sfi -adaptive: ledger differs between default pool and -workers 1 -engine ref" >&2
	exit 1
}
grep -q 'adaptive g721encode: executed' "$tmp/adapt-a.txt" || { echo "encore-sfi -adaptive: no adaptive summary line" >&2; exit 1; }
"$tmp/encore-sfi" -app g721encode -trials 300 -seed 7 -adaptive -adaptive-ci 0.12 -adaptive-round 16 -workers 4 -trace "$tmp/adapt-r4.jsonl" > /dev/null
"$tmp/encore-sfi" -app g721encode -trials 300 -seed 7 -adaptive -adaptive-ci 0.12 -adaptive-round 16 -workers 1 -engine ref -trace "$tmp/adapt-r1.jsonl" > /dev/null
cmp -s "$tmp/adapt-r4.jsonl" "$tmp/adapt-r1.jsonl" || {
	echo "encore-sfi -adaptive-round 16: ledger differs between -workers 4 and -workers 1 -engine ref" >&2
	exit 1
}

echo "==> smoke: Prometheus exposition passes promlint"
"$tmp/encore-sfi" -app rawcaudio -trials 5 -prom "$tmp/sfi.prom" > /dev/null
go run scripts/promlint.go "$tmp/sfi.prom" || { echo "encore-sfi -prom: promlint failed" >&2; exit 1; }
"$tmp/encore" -app rawcaudio -prom "$tmp/encore.prom" > /dev/null
go run scripts/promlint.go "$tmp/encore.prom" || { echo "encore -prom: promlint failed" >&2; exit 1; }

echo "==> smoke: encore-serve rejects a malformed module, then served ledger == batch ledger, three times"
# Boot the daemon on an ephemeral port, submit a malformed module, then
# three times the same campaign the -trace smoke above ran in batch
# (rawcaudio, 5 trials, seed 1, dmax 100), and cmp each streamed ledger
# against the batch bytes. Then check /metrics (one prepared-campaign
# miss, one hit) and graceful SIGTERM drain.
"$tmp/encore-serve" -addr 127.0.0.1:0 2> "$tmp/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's#.*listening on http://##p' "$tmp/serve.log" | head -1)
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "encore-serve: never reported a listen address" >&2; cat "$tmp/serve.log" >&2; exit 1; }
# A malformed tenant module (negative global size) must answer 400
# bad-request at submit and leave the daemon serving: the served-vs-batch
# cmp below runs on the same process.
code=$(curl -sS -o "$tmp/serve-bad.json" -w '%{http_code}' -X POST "http://$addr/v1/campaigns" \
	-H 'Content-Type: application/json' \
	-d '{"module":"module m\nglobal g[-4]\nfunc main(params=0 regs=1 frame=0):\nentry#0:\n  r0 = const 1\n  ret r0\n","trials":4}')
[ "$code" = 400 ] || { echo "encore-serve: malformed module answered $code, want 400" >&2; exit 1; }
grep -q '"code":"bad-request"' "$tmp/serve-bad.json" || { echo "encore-serve: malformed module error code is not bad-request" >&2; cat "$tmp/serve-bad.json" >&2; exit 1; }
# The same request three times: the first prepares its golden run
# without caching it, the second admits it to the prepared-campaign
# cache, and the third is served from the cache. All three ledgers must
# be the batch bytes.
for n in 1 2 3; do
	cid=$(curl -sS -X POST "http://$addr/v1/campaigns" \
		-H 'Content-Type: application/json' \
		-d '{"workload":"rawcaudio","trials":5,"seed":1,"dmax":100}' \
		| sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
	[ -n "$cid" ] || { echo "encore-serve: submit $n returned no campaign id" >&2; exit 1; }
	curl -sS "http://$addr/v1/campaigns/$cid/ledger" > "$tmp/served.jsonl"
	cmp -s "$tmp/trace.jsonl" "$tmp/served.jsonl" || {
		echo "encore-serve: served ledger of submit $n differs from batch encore-sfi -trace:" >&2
		diff "$tmp/trace.jsonl" "$tmp/served.jsonl" >&2 || true
		exit 1
	}
done
# The settled result: all five trials executed, and pred_coverage (read
# from the campaign's estimator) equal to the ledger header's.
curl -sS "http://$addr/v1/campaigns/$cid/result" > "$tmp/serve-result.json"
grep -q '"executed":5' "$tmp/serve-result.json" || { echo "encore-serve: /result executed != 5" >&2; cat "$tmp/serve-result.json" >&2; exit 1; }
want_cov=$(sed -n '1s/.*"pred_coverage":\([^,}]*\).*/\1/p' "$tmp/served.jsonl")
got_cov=$(sed -n 's/.*"pred_coverage":\([^,}]*\).*/\1/p' "$tmp/serve-result.json")
[ -n "$want_cov" ] && [ "$got_cov" = "$want_cov" ] || {
	echo "encore-serve: /result pred_coverage '$got_cov', ledger header '$want_cov'" >&2
	exit 1
}
curl -sS "http://$addr/v1/campaigns/$cid" > "$tmp/serve-status.json"
grep -q '"state":"done"' "$tmp/serve-status.json" || { echo "encore-serve: campaign did not settle done" >&2; exit 1; }
curl -sS "http://$addr/metrics" > "$tmp/serve-metrics.json"
grep -q '"serve.campaigns.completed"' "$tmp/serve-metrics.json" || { echo "encore-serve: /metrics missing serve counters" >&2; exit 1; }
for c in misses hits; do
	grep -A1 "\"serve.prepared.$c\"" "$tmp/serve-metrics.json" | grep -q '"value": 1$' || {
		echo "encore-serve: /metrics serve.prepared.$c is not 1 after three identical submits" >&2
		exit 1
	}
done
curl -sS "http://$addr/v1/campaigns/$cid/stats" > "$tmp/serve-stats.json"
grep -q '"regions"' "$tmp/serve-stats.json" || { echo "encore-serve: /stats missing regions array" >&2; exit 1; }
grep -q '"trials":5' "$tmp/serve-stats.json" || { echo "encore-serve: /stats trials != 5" >&2; exit 1; }
curl -sS "http://$addr/metrics?format=prom" > "$tmp/serve.prom"
grep -q '^# TYPE encore_serve_campaigns_accepted counter' "$tmp/serve.prom" || { echo "encore-serve: prom exposition missing serve counters" >&2; exit 1; }
go run scripts/promlint.go "$tmp/serve.prom" || { echo "encore-serve: /metrics?format=prom failed promlint" >&2; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "encore-serve: non-zero exit on SIGTERM drain" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q 'draining' "$tmp/serve.log" || { echo "encore-serve: no drain log line on SIGTERM" >&2; exit 1; }
grep -q '"event":"campaign_settled"' "$tmp/serve.log" || { echo "encore-serve: no campaign_settled summary line" >&2; exit 1; }

echo "==> smoke: encore-bench"
"$tmp/encore-bench" -exp fig5 -apps rawcaudio,rawdaudio -quick -metrics "$tmp/bench.json" > /dev/null
grep -q '"bench/fig5"' "$tmp/bench.json" || { echo "encore-bench -metrics: no bench/fig5 span" >&2; exit 1; }

echo "==> smoke: ENCORE_WORKERS determinism (counters identical at 1 vs default)"
# Counter values (compiles, regions, interpreter totals) must not depend
# on the worker count; spans carry wall-clock and are excluded.
ENCORE_WORKERS=1 "$tmp/encore-bench" -exp fig5 -apps rawcaudio,rawdaudio -quick -metrics "$tmp/bench-w1.json" > /dev/null
sed -n '/"counters"/,/\]/p' "$tmp/bench.json" > "$tmp/counters-default.txt"
sed -n '/"counters"/,/\]/p' "$tmp/bench-w1.json" > "$tmp/counters-w1.txt"
cmp -s "$tmp/counters-default.txt" "$tmp/counters-w1.txt" || {
	echo "encore-bench: counters differ between ENCORE_WORKERS=1 and default:" >&2
	diff "$tmp/counters-default.txt" "$tmp/counters-w1.txt" >&2 || true
	exit 1
}

echo "OK"
