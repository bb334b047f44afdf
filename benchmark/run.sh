#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources into .bench_build/ (Go build cache included, so
# nothing is written outside the checkout) and runs it from the root of
# the checkout with the driver's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/gvrt-benchmark" .) >&2
cd "$root"
exec "$out/gvrt-benchmark" -workdir "$out/work" "$@"
