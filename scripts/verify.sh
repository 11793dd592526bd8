#!/bin/sh
# Full local verification: formatting, vet, build, tests, fuzz smokes, the
# race detector over the concurrent compute packages and the serving stack
# (make test-race), the chaos and golden-trace suites, and the benchmark
# overhead guards against BENCH.json.
# Run from the repository root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== fuzz smoke (fault-plan grammar, 10s)"
go test -run '^$' -fuzz FuzzParsePlan -fuzztime=10s ./internal/fault/

echo "== fuzz smoke (round-half-away quantizer helper, 5s)"
go test -run '^$' -fuzz FuzzRoundHalfAway -fuzztime=5s ./internal/quant/

echo "== fuzz smoke (bit-plane dot product vs brute force, 5s)"
go test -run '^$' -fuzz FuzzBitplaneDot -fuzztime=5s ./internal/tensor/

echo "== fuzz smoke (calendar-vs-heap event queue, 10s)"
go test -run '^$' -fuzz FuzzCalendarQueue -fuzztime=10s ./internal/sim/

echo "== fuzz smoke (stream-spec grammar, 10s)"
go test -run '^$' -fuzz FuzzStreamSpec -fuzztime=10s ./internal/cluster/

echo "== fuzz smoke (workload-scenario grammar, 10s)"
go test -run '^$' -fuzz FuzzParseScenario -fuzztime=10s ./internal/edge/

echo "== go test -race (concurrent + serving packages)"
make test-race

echo "== chaos suite (seeded fault injection)"
make test-chaos

echo "== golden traces (scenario + decision streams)"
make trace-golden

echo "== bench smoke (one fast kernel benchmark through scripts/bench.sh)"
bench_out=$(mktemp)
BENCH_OUT="$bench_out" BENCH_TIME=1x BENCH_PATTERN='BenchmarkDESKernel' ./scripts/bench.sh
grep -q 'BenchmarkDESKernel' "$bench_out"
rm -f "$bench_out"

echo "== overhead guards (BenchmarkRunEdge + BenchmarkPoolRun + BenchmarkClusterRun + BenchmarkDESKernel + BenchmarkFaultInjector + BenchmarkLibraryGenerate/serial vs BENCH.json)"
# Tracing off must stay free on the serving hot path, pool supervision
# must stay cheap on the healthy path (<2% claims, measured back to back
# in DESIGN.md), adaptation must stay free when disabled (the fluid
# variant IS the disabled-adapt path), the calendar-queue DES kernel
# must not regress toward the old heap numbers, a fault-free injector
# must seed no RNG stream, and library generation must stay shape-first
# (no weight copies for the calibrated evaluator).
# The committed baseline was measured on one machine and this guard may
# run on another, so the ns/op tolerance is generous (25%); allocs/op and
# B/op are gated at 5% (benchjson -check). Skips cleanly if the baseline
# lacks the benchmarks.
if grep -q 'BenchmarkRunEdge\|BenchmarkPoolRun' BENCH.json; then
	overhead_out=$(mktemp)
	# -count 3: benchjson keeps the fastest of repeats, damping the
	# heavy scheduler noise of small containers. The library benchmark
	# runs on its own: a '/' in a -bench pattern splits it per level.
	go test -run '^$' -bench 'BenchmarkRunEdge$|BenchmarkPoolRun|BenchmarkClusterRun|BenchmarkDESKernel|BenchmarkFaultInjector' -benchtime 0.5s -count 3 . | tee "$overhead_out"
	go test -run '^$' -bench 'BenchmarkLibraryGenerate/serial$' -benchtime 0.5s -count 3 . | tee -a "$overhead_out"
	go run ./cmd/benchjson -check -baseline BENCH.json -tol 0.25 "$overhead_out"
	rm -f "$overhead_out"
else
	echo "BENCH.json has no BenchmarkRunEdge/BenchmarkPoolRun entry; skipping"
fi

echo "verify: OK"
