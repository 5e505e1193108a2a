#!/bin/sh
# bench.sh — run the repo's benchmark suite and write a dated baseline.
#
# Runs the experiment-level benchmarks (bench_test.go at the root) and the
# per-layer microbenchmarks of every package that has them (engine, tracer,
# the ring behind NoC link queues, model builders, machine, the attribution
# sweep), then writes
# BENCH_<date>.json: a JSON envelope holding the parsed results plus the
# raw `go test -bench` text, which is benchstat-compatible (extract .raw
# and feed two baselines to benchstat to compare).
#
# Usage:
#   scripts/bench.sh             # full suite -> BENCH_<date>.json
#   scripts/bench.sh -quick      # per-layer microbenchmarks only
#   BENCH_OUT=path scripts/bench.sh   # override the output file
set -eu

cd "$(dirname "$0")/.."

quick=0
if [ "${1:-}" = "-quick" ]; then
	quick=1
fi

out="${BENCH_OUT:-BENCH_$(date -u +%Y%m%d).json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# The root package carries the per-experiment regeneration benchmarks
# (BenchmarkFig*, BenchmarkServingSweep, ...); it joins the full suite only —
# quick mode sticks to the fast per-layer microbenchmarks.
pkgs="./internal/sim/ ./internal/trace/ ./internal/pool/ ./internal/model/ ./internal/machine/ ./internal/attrib/"
if [ "$quick" = 0 ]; then
	pkgs=". $pkgs"
fi

echo "== go test -bench (benchtime=1x warmup skipped; packages: $pkgs)"
# -count=1 and -run='^$' keep this a pure benchmark pass; GOMAXPROCS is
# left alone so the numbers reflect the machine CI ran on.
# shellcheck disable=SC2086
go test -run='^$' -bench=. -benchmem -count=1 $pkgs | tee "$raw"

# Fold the raw output into a JSON baseline. The raw text is embedded
# verbatim so `jq -r .raw BENCH_x.json | benchstat /dev/stdin ...` works.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v go_version="$(go env GOVERSION)" '
BEGIN {
	printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, go_version
	first = 1
}
{ raw = raw $0 "\\n" }
/^Benchmark/ && NF >= 4 {
	# BenchmarkName-N  iters  ns/op  [B/op  allocs/op]
	name = $1; sub(/-[0-9]+$/, "", name)
	if (!first) printf ",\n"
	first = 0
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
	for (i = 4; i < NF; i++) {
		if ($(i+1) == "B/op") printf ", \"bytes_per_op\": %s", $i
		if ($(i+1) == "allocs/op") printf ", \"allocs_per_op\": %s", $i
	}
	printf "}"
}
END {
	gsub(/"/, "\\\"", raw)
	gsub(/\t/, "\\t", raw)
	printf "\n  ],\n  \"raw\": \"%s\"\n}\n", raw
}
' "$raw" > "$out"

echo "wrote $out"
