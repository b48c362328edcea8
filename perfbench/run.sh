#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, e.g.
#
#	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
