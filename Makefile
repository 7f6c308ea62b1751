# Convenience entry points mirroring the CI pipeline. `make lint` is the
# local pre-push check for the determinism/hot-path contracts; see
# DESIGN.md §12 for what each analyzer enforces.

GO ?= go

.PHONY: all build test race lint lint-baseline vet fmt check bench-smoke bench cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The eantlint multichecker: rngonly, noclock, maporder, floatsum,
# statsmut, hotalloc, resetstate, ptrretain —
# interprocedural since the call-graph layer landed, so the whole
# module is analyzed as one unit.
# Known debt lives in lint.baseline; new findings exit non-zero with
# file:line diagnostics.
lint:
	$(GO) run ./cmd/eantlint -baseline lint.baseline ./...

# Re-record the debt ledger after deliberately accepting new findings.
lint-baseline:
	$(GO) run ./cmd/eantlint -write-baseline ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: fmt vet build lint test

bench-smoke:
	$(GO) test -run xxx -bench SimulatorThroughput -benchtime=1x -benchmem .
	$(GO) test -run xxx -bench BenchmarkDisabledProbe -benchtime=1000x -benchmem ./internal/probe

# The full scale grid plus the warm/cold sweep pair: fixed iteration
# counts (not -benchtime=Ns) so allocs/op is comparable across commits,
# and COUNT-many repetitions to show the spread. To compare two commits
# end to end, run the benchmark harness on each checkout:
#   bash _perfbench/run.sh --workload W --seed N --seconds S --trace 0
# (workloads are listed in BENCHMARK.json and _perfbench/README.md).
# BENCH_*.json record the committed history of these numbers. On shared
# hardware, trust grid-wide trends over single cells (EXPERIMENTS.md).
COUNT ?= 5
bench:
	$(GO) test -run xxx -bench 'BenchmarkScale$$' -benchtime=10x -benchmem -count=$(COUNT) .
	$(GO) test -run xxx -bench 'BenchmarkRunManyWarm$$' -benchtime=20x -benchmem -count=$(COUNT) .

# Per-package statement coverage for the observability packages and the
# world-state core; CI enforces floors on these (see
# .github/workflows/ci.yml).
cover:
	$(GO) test -cover ./internal/probe ./internal/trace ./internal/metrics ./internal/cluster
