GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-procs race vet fmt-check check bench bench-obs bench-audit bench-recorder bench-market bench-trace bench-tenants bench-heat bench-all attacksim fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-procs runs the full suite at several core counts so behaviour
# that depends on GOMAXPROCS (stripe and shard counts) cannot hide
# behind a single-core machine.
test-procs:
	@set -e; for p in 1 2 8; do \
		echo "== GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 ./...; \
	done

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# check is the CI gate: formatting, static analysis, then the full suite
# under the race detector.
check: fmt-check vet race

bench: bench-obs
	$(GO) test -bench=. -benchtime=100x -run=^$$ ./internal/bench/

# bench-obs bounds the telemetry overhead: obs micro-benchmarks (each
# instrument enabled vs disabled) plus the end-to-end mediated-call pair,
# whose On/Off delta must stay within the 5% budget (DESIGN.md §10).
bench-obs:
	$(GO) test -bench=. -benchtime=1000000x -run=^$$ ./internal/obs/
	$(GO) test -bench=BenchmarkMediatedCallObs -benchtime=1s -count=4 -run=^$$ .

# bench-audit bounds the audit-pipeline overhead on the same mediated
# call: the AuditOn/AuditOff delta must stay within the 5% budget
# (DESIGN.md §11).
bench-audit:
	$(GO) test -bench=BenchmarkMediatedCallAudit -benchtime=1s -count=4 -run=^$$ .

# bench-recorder enforces the flight recorder's 5% budget: the guard
# runs RecorderOn/RecorderOff pairs and fails when the median ratio
# exceeds 1.05 (DESIGN.md §13). SHORT=1 drops to 3 pairs for CI.
bench-recorder:
	SDNSHIELD_RECORDER_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestRecorderOverheadBudget -v .

# bench-market measures the app-market pipeline — installs/sec with a
# cold vs warm verdict cache (the warm rate must hold ≥1000/s) and the
# job spine's throughput/latency — and writes BENCH_market.json.
# SHORT=1 shrinks the workload for CI.
bench-market:
	SDNSHIELD_MARKET_BENCH=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestMarketBenchTrajectory -v ./internal/bench/

# bench-tenants is the multi-tenant flatness guard: a thousand tenants
# (two hundred with SHORT=1) install their apps and issue mediated calls
# across shard counts {1,4,16}, and the 16-shard call p95 must stay
# within 10% of the single-tenant baseline (DESIGN.md §16). Writes
# BENCH_tenants.json.
bench-tenants:
	SDNSHIELD_TENANT_BENCH=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestTenantBenchFlatness -v ./internal/bench/

# bench-trace enforces the span layer's 5% budget on the mediated-call
# hot path: the guard runs SpanOn/SpanOff chunk pairs and fails when
# the median ratio exceeds 1.05 (DESIGN.md §15). The span throughput
# and per-stage install breakdown (BENCH_trace.json) ride bench-market.
# SHORT=1 drops to 5 rounds for CI.
bench-trace:
	SDNSHIELD_SPAN_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestSpanOverheadBudget -v .

# bench-heat enforces the decision-heat profiler's 5% budget on the
# mediated-call hot path (HeatOn/HeatOff chunk pairs, median ratio
# ≤1.05, DESIGN.md §17) and writes BENCH_heat.json: the per-clause heat
# distribution and check latency percentiles at sampling 1. SHORT=1
# shrinks both for CI.
bench-heat:
	SDNSHIELD_HEAT_GUARD=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestHeatOverheadBudget -v .
	SDNSHIELD_HEAT_BENCH=1 $(GO) test $(if $(SHORT),-short) -count=1 -run=TestHeatBenchTrajectory -v ./internal/bench/

# bench-all runs every bench gate in one pass, refreshing every
# BENCH_*.json trajectory file. SHORT=1 propagates to each gate.
bench-all: bench-recorder bench-trace bench-heat bench-market bench-tenants

attacksim:
	$(GO) run ./cmd/attacksim -v

# fuzz-smoke runs the native fuzz targets briefly — enough for CI to
# catch parser panics and round-trip regressions on mutated market
# packages without the cost of a long fuzzing campaign.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseManifest -fuzztime=$(FUZZTIME) ./internal/permlang/
	$(GO) test -run=^$$ -fuzz=FuzzParsePolicy -fuzztime=$(FUZZTIME) ./internal/policylang/
	$(GO) test -run=^$$ -fuzz=FuzzJobDecode -fuzztime=$(FUZZTIME) ./internal/jobs/
	$(GO) test -run=^$$ -fuzz=FuzzTenantID -fuzztime=$(FUZZTIME) ./internal/tenant/
