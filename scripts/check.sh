#!/bin/sh
# check.sh — the repo's one pre-merge gate; `make check` and CI both run it.
# Runs formatting, vet (root and caisbench modules), build, caislint (the
# determinism & unit-safety analyzer), the full test suite (the root module
# plain and under the race detector, the caisbench module under the race
# detector), one caisbench pass that checks every workload's golden
# digests, the disabled-tracer zero-alloc benchmark, the four examples
# (run, output discarded), the quick resilience, attribution and serving
# smokes, and the CLI's parallel quick sweep compared byte for byte with
# the committed golden (internal/experiments/testdata/golden/quick.txt).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

# The benchmark is its own module: the root vet, build and test do not
# reach it, yet it builds against the memo, serve and strategy APIs.
echo "== go vet (cmd/caisbench module)"
(cd cmd/caisbench && go vet ./...)

echo "== go build"
go build ./...

echo "== caislint (determinism, unit safety)"
go run ./cmd/caislint ./...

echo "== go test"
go test ./...

# Under the race detector: TestRecorderFromSweepWorkers records from sweep
# workers, and the root module's -race pass below does not reach this module.
echo "== go test -race (cmd/caisbench module)"
(cd cmd/caisbench && go test -race ./...)

# One pass of all four caisbench workloads: it checks all 45 golden
# digests in cmd/caisbench/testdata/golden.json (each hashes a run's
# telemetry, sim.steps included) and exits nonzero on any failed op. The
# go tests above check only layer-hot's two.
echo "== caisbench goldens (one pass of every workload)"
bash cmd/caisbench/run.sh --seconds 1

echo "== go test -race"
go test -race ./...

echo "== disabled-tracer zero-alloc benchmark"
go test -run='^$' -bench=BenchmarkDisabledHotPath -benchmem ./internal/trace/

# The examples are the public API's runnable demos; collectives is also the
# one caller of the kernel builders outside internal/.
echo "== examples (run, output discarded)"
for ex in examples/*/; do
	go run "./$ex" > /dev/null
done

echo "== resilience smoke (fault-injection degradation study, quick)"
go run ./cmd/caissim -experiment resilience -quick

echo "== attribution smoke (fig17 quick, JSON report)"
go run ./cmd/caissim -experiment fig17 -quick -attrib-json attrib-report.json > /dev/null

echo "== serving smoke (request-level serving study, quick, 4 workers)"
go run ./cmd/caissim -experiment serving -quick -parallel 4 > /dev/null

echo "== parallel sweep check (all experiments, quick, 4 workers, against the golden)"
go run ./cmd/caissim -experiment all -quick -parallel 4 | cmp - internal/experiments/testdata/golden/quick.txt

echo "OK"
