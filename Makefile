GO ?= go

.PHONY: all build test check vet fmt lint race fuzz resilience-smoke parallel-smoke attrib-smoke serving-smoke experiments-full bench bench-quick bench-diff profile clean

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# race: the simulator is single-goroutine by design, but the CLI spawns a
# pprof server goroutine and tests exercise concurrent snapshotting idioms
# — run the whole suite under the race detector to keep that honest.
race:
	$(GO) test -race ./...

# fuzz: each fuzz target for FUZZTIME (default 30s): fault schedules
# (FuzzParse), serving workloads (FuzzWorkload), hardware plus assembly
# (FuzzHardware) and event schedules against the reference (at, seq) order
# (FuzzEngineOrder), one `go test -fuzz` run per target. Plain `go test`
# runs only their seed corpora. A crasher lands in the package's
# testdata/fuzz/<target>/; commit it there as a regression seed.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzWorkload$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzHardware$$' -fuzztime $(FUZZTIME) ./internal/strategy

# resilience-smoke: the fault-injection degradation study at reduced
# fidelity (DESIGN.md §8) — a fast end-to-end pass over every fault kind.
resilience-smoke: build
	$(GO) run ./cmd/caissim -experiment resilience -quick

# parallel-smoke: every experiment at reduced fidelity on a 4-worker sweep
# pool, compared byte for byte with the committed golden — exercises the
# parallel executor end to end through the CLI.
parallel-smoke: build
	$(GO) run ./cmd/caissim -experiment all -quick -parallel 4 | cmp - internal/experiments/testdata/golden/quick.txt

# experiments-full: regenerate experiments_full.txt, the full-fidelity
# output EXPERIMENTS.md quotes (about 90 s on 2 vCPUs). CI runs it
# and fails when the committed file differs.
experiments-full: build
	$(GO) run ./cmd/caissim -experiment all > experiments_full.txt

# attrib-smoke: the time-attribution engine end to end (DESIGN.md §12) —
# a quick fig17 sweep with the tick-exact JSON report written out; CI
# uploads the report as a non-gating artifact.
attrib-smoke: build
	$(GO) run ./cmd/caissim -experiment fig17 -quick -attrib-json attrib-report.json

# serving-smoke: the request-level serving study (DESIGN.md §13) at reduced
# fidelity on a 4-worker pool — continuous batching, SLO/goodput evaluation
# and the memoized cost anchors, end to end through the CLI.
serving-smoke: build
	$(GO) run ./cmd/caissim -experiment serving -quick -parallel 4

vet:
	$(GO) vet ./...

# lint: caislint, the project's determinism and unit-safety analyzer
# (see DESIGN.md "Static analysis"). `caislint -list` prints the check
# catalog.
lint:
	$(GO) run ./cmd/caislint ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# check: the one pre-merge gate, the same script CI runs — formatting,
# vet, build, caislint, the tests (root module, the caisbench module and
# under -race), one caisbench pass checking all 45 golden digests, the
# zero-alloc tracer benchmark, the four examples, the quick smokes and the
# CLI's quick sweep compared with the committed golden.
check:
	sh scripts/check.sh

# bench: the full benchmark suite (experiment drivers and the per-layer
# microbenchmarks) via scripts/bench.sh, which writes a dated
# benchstat-compatible baseline to BENCH_<date>.json.
bench: build
	sh scripts/bench.sh

# bench-quick: the per-layer microbenchmarks only (skips the slow
# experiment-level benchmarks).
bench-quick: build
	sh scripts/bench.sh -quick

# bench-diff: benchstat-style comparison of a fresh quick benchmark run
# against the newest committed BENCH_*.json baseline; flags >10% ns/op
# regressions and any allocs/op increase. Pass baselines explicitly with
# `sh scripts/bench_diff.sh OLD.json NEW.json`. Non-gating in CI.
bench-diff: build
	sh scripts/bench_diff.sh

# profile: CPU + allocation profiles of the hot path (the three workloads
# the allocation ceilings pin) via scripts/profile.sh; pprof files land in
# profiles/ and the top allocation sites print inline. CI uploads the
# directory as a non-gating artifact.
profile: build
	sh scripts/profile.sh

clean:
	$(GO) clean ./...
