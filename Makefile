# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).

GO ?= go
PARALLEL ?= 0 # 0 = one worker per CPU (runner default)

.PHONY: all build test race vet lint figures figures-quick bench bench-check ab profile clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checked run of the packages that exercise the parallel harness.
# The experiments suite runs multi-minute sweeps; give it headroom.
race:
	$(GO) test -race -timeout 45m ./internal/runner/... ./internal/experiments/... ./internal/sim/...

vet:
	$(GO) vet ./...

# Requires golangci-lint on PATH (CI installs it via the official action).
lint:
	golangci-lint run

figures:
	$(GO) run ./cmd/rambda-figures -parallel $(PARALLEL)

figures-quick:
	$(GO) run ./cmd/rambda-figures -quick -parallel $(PARALLEL)

# Performance-regression harness: times every figure plus the sim
# microbenchmark kernels, writes $(BENCH_OUT) and compares it against
# $(BENCH_BASE) (schema documented in cmd/rambda-bench and
# EXPERIMENTS.md). Runs the partitioned engine at -sim-parallel 4 —
# output stays byte-identical, only wall time moves. The default
# output is an untracked scratch file, so a run never overwrites the
# committed baseline; record a new one with
#   make bench BENCH_OUT=BENCH_9.json
BENCH_BASE ?= BENCH_8.json
BENCH_OUT ?= bench-out.json
bench:
	$(GO) run ./cmd/rambda-bench -quick -parallel $(PARALLEL) -sim-parallel 4 -out $(BENCH_OUT) -baseline $(BENCH_BASE)

# The same run as a gate: fails on a >25% machine-normalized time
# regression or on alloc-count regressions (micro allocs/op and
# per-figure totals) against $(BENCH_BASE). CI's bench-smoke job runs
# the equivalent command.
bench-check: bench

# Same-machine A/B of the repository benchmark: builds perfbench at
# $(BASE) and at HEAD in git worktrees under .bench_build/ab/, runs
# $(PAIRS) alternating pairs of $(WORKLOAD) and prints each end-to-end
# metric's medians, quartiles and win count. Usage:
#   make ab BASE=main WORKLOAD=figures-quick PAIRS=10
WORKLOAD ?= figures-quick
PAIRS ?= 10
ab:
	$(GO) run ./tools/ab -base "$(BASE)" -workload $(WORKLOAD) -pairs $(PAIRS)

# CPU-profile one figure end to end, then open pprof. Usage:
#   make profile FIG=fig8
FIG ?= fig8
profile:
	$(GO) run ./cmd/rambda-figures -quick -parallel 1 -only $(FIG) -cpuprofile /tmp/$(FIG).prof > /dev/null
	$(GO) tool pprof -top /tmp/$(FIG).prof | head -20

clean:
	$(GO) clean ./...
