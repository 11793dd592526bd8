#!/bin/sh
# Tracked benchmark baseline: runs the key design-time and substrate
# benchmarks and writes their numbers to BENCH.json via cmd/benchjson.
# Run from the repository root (or via `make bench`).
#
# Environment overrides:
#   BENCH_OUT      output JSON path        (default BENCH.json)
#   BENCH_PATTERN  -bench regexp           (default: the tracked set below)
#   BENCH_TIME     -benchtime              (default 1s)
#   BENCH_COUNT    -count                  (default 1)
#   BENCH_NOTE     _note string embedded in the JSON
set -eu

cd "$(dirname "$0")/.."

BENCH_OUT=${BENCH_OUT:-BENCH.json}
BENCH_PATTERN=${BENCH_PATTERN:-'BenchmarkLibraryGenerate|BenchmarkExploreTargetFPS|BenchmarkGemm$|BenchmarkConvForward$|BenchmarkCNVLayer|BenchmarkDESKernel|BenchmarkRunEdge$|BenchmarkPoolRun|BenchmarkClusterRun|BenchmarkFaultInjector'}
BENCH_TIME=${BENCH_TIME:-1s}
BENCH_COUNT=${BENCH_COUNT:-1}
BENCH_NOTE=${BENCH_NOTE:-'measured on a 2-core shared VM: other tenants steal CPU, so ns/op moves by tens of percent between runs and worker-pool speedups stay small; benchjson -check gates ns/op loosely (-tol) and allocs/op, B/op within 5%, the stable signal'}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== go test -bench '$BENCH_PATTERN' (benchtime $BENCH_TIME, count $BENCH_COUNT)"
go test -run '^$' -bench "$BENCH_PATTERN" -benchmem \
	-benchtime "$BENCH_TIME" -count "$BENCH_COUNT" . | tee "$tmp"

echo "== writing $BENCH_OUT"
go run ./cmd/benchjson -o "$BENCH_OUT" -note "$BENCH_NOTE" "$tmp"
echo "bench: baseline written to $BENCH_OUT"
