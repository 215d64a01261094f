#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the build writes (binary and Go build
# cache) stays under .bench_build/ in the checkout; `go build` is a
# no-op when nothing changed. Run from the repository root:
#
#   bash benchmark/run.sh --workload pl1k-s2d-k4 --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/spmv-benchmark" .
exec "$root/.bench_build/spmv-benchmark" "$@"
