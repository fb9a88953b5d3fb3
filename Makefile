GO ?= go

.PHONY: all build vet lint test race bench bench-baseline bench-check chaos-smoke chaos-nightly scale-smoke scale-full live-smoke livechaos-smoke livechaos-nightly rebalance-smoke tier1 ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint: vet, formatting, and doc coverage of the public surfaces (every
# exported symbol of the root rescon facade, the rcruntime bridge, the
# shared alert/watchdog core and the chaos harness must carry a doc
# comment).
lint: vet
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./cmd/checkdocs . ./internal/rcruntime ./internal/alert ./internal/chaos

# Fast suite: -short skips the long experiment sweeps but keeps the
# runtime invariant checker on (the experiments test Options enable it).
test:
	$(GO) test -short ./...

# Full suite under the race detector — the tier-1 gate.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run - -bench . -benchtime 1x ./...

# Record the full testing.B suite as a JSON baseline for perf-regression
# comparisons (docs/PERFORMANCE.md). Uses a real benchtime so the numbers
# are stable enough to compare against.
bench-baseline:
	$(GO) test -run - -bench . -benchmem -timeout 30m ./... | $(GO) run ./cmd/benchjson -o BENCH_baseline.json

# Benchmark-regression gate: re-run the testing.B suite and diff against
# the stored baseline — ns/op must stay within ±20%, and the pinned hot
# paths (docs/PERFORMANCE.md) must stay at exactly 0 allocs/op.
BENCH_TOL ?= 0.20
bench-check:
	$(GO) test -run - -bench . -benchmem -timeout 30m ./... | $(GO) run ./cmd/benchjson -check BENCH_baseline.json -tol $(BENCH_TOL)

# Chaos harness smoke: a handful of seeded scenarios, each run under all
# three kernel modes with the invariant battery and the determinism
# double-run, under the race detector. Failing seeds shrink to JSON
# repros in the working directory (chaos-repro-<seed>-<mode>.json).
chaos-smoke:
	$(GO) run -race ./cmd/rcchaos -run 8 -seed 1

# The nightly sweep: a much wider seed range (rotate the base seed to
# cover new ground; CI passes the run date).
CHAOS_NIGHTLY_SEED ?= 1
chaos-nightly:
	$(GO) run ./cmd/rcchaos -run 500 -seed $(CHAOS_NIGHTLY_SEED)

# Datacenter-scale smoke: ramp each kernel mode to 100k concurrent
# connections (quick axis) under the race detector. Verifies the
# flyweight conn table, batched accept path and timing wheel end to end
# on every push without paying for the 1M ramp.
scale-smoke:
	$(GO) run -race ./cmd/rcbench -exp scale -quick

# The full sweep: 10k → 1M concurrent connections across all six
# mode × policing configs (nightly alongside the chaos sweep).
scale-full:
	$(GO) run ./cmd/rcbench -exp scale

# Live-bridge smoke: boot a real net/http server on loopback, govern it
# with rcruntime, and drive the closed-loop load generator under virtual
# time. -check makes the run fail unless the policed configuration's
# well-behaved goodput strictly exceeds the unpoliced one.
live-smoke:
	$(GO) run -race ./cmd/rcbench -exp live -quick -check

# Survivability smoke: the same real server under live fault injection
# (handler stalls, panics, connection resets) with the closed-loop
# watchdog defending. -check re-runs both cells and enforces
# byte-identical results, clamp-then-restore, zero drain leaks, and
# defended goodput strictly above undefended.
livechaos-smoke:
	$(GO) run -race ./cmd/rcbench -exp livechaos -quick -check

# Nightly live fuzz: seeded breaker/watchdog interaction scenarios on
# the real middleware stack, hunting oscillation, starvation, ledger
# drift and leaks. Failing seeds shrink to live-repro-<seed>.json.
livechaos-nightly:
	$(GO) run ./cmd/rcchaos -live -run 300 -seed $(CHAOS_NIGHTLY_SEED)

# Adaptive-rebalancing smoke: the static vs adaptive vs no-damping
# ablation under flash-crowd and diurnal load shifts, across all three
# kernel modes, under the race detector. -check gates on byte-identical
# double runs, adaptive goodput strictly above the static split, the
# damped arm never disarming, the no-damping arm tripping the
# oscillation detector (and restoring the static shares verbatim), and
# the starvation floor holding in every cell.
rebalance-smoke:
	$(GO) run -race ./cmd/rcbench -exp rebalance -quick -check

tier1: build race

ci: build lint race chaos-smoke livechaos-smoke rebalance-smoke
