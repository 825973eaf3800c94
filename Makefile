# delaycalc — build/test/reproduce targets. Run `make help` for a summary.

GO ?= go

# Allowed ns/op slowdown factor before bench-gate fails. CI overrides this
# upward (cross-machine variance); local runs use the strict default.
BENCH_TOLERANCE ?= 1.3

.PHONY: all build test race bench bench-admit bench-release bench-service bench-batch bench-shards bench-curves bench-fabric bench-gate profile-curves cover figures fuzz run-delayd falsify falsify-smoke help clean

all: build test

help:
	@echo "delaycalc targets:"
	@echo "  build          compile and vet everything"
	@echo "  test           run the full test suite"
	@echo "  race           test suite under the race detector"
	@echo "  bench          all benchmarks"
	@echo "  bench-admit    full vs incremental admission benchmark"
	@echo "  bench-release  incremental vs invalidating release benchmark"
	@echo "  bench-service  churn + open-loop sweep + batch comparison -> BENCH_service.json"
	@echo "  bench-batch    batched-vs-sequential gate (>=3x p50), diffed against BENCH_service.json"
	@echo "  bench-shards   shard-scaling sweep at 1/2/4/8 shards -> BENCH_shards.json"
	@echo "  bench-curves   curve-engine benchmarks -> BENCH_curves.json"
	@echo "  bench-fabric   10k-switch fat-tree analysis benchmark"
	@echo "  bench-gate     re-run curve benchmarks, fail past $(BENCH_TOLERANCE)x the committed snapshot"
	@echo "  profile-curves fabric benchmark with CPU/heap profiles -> results/"
	@echo "  cover          test suite with coverage"
	@echo "  figures        regenerate paper figures and CSVs"
	@echo "  falsify        adversarial bound falsification, full matrix -> FALSIFY_report.json"
	@echo "  falsify-smoke  CI-budget falsification over 4 scenarios (fails on contradiction)"
	@echo "  fuzz           fuzz min-plus algebra, netspec decode, incremental admission"
	@echo "  run-delayd     start the admission daemon on the paper tandem"
	@echo "  clean          remove generated artifacts"

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Full vs incremental admission test on the 200-connection, 32-switch
# tandem (docs/INCREMENTAL.md): the wall-clock rows of the test path
# (TestIncrementalWork gates the deterministic counters in tier-1).
bench-admit:
	$(GO) test -bench='BenchmarkFullTest|BenchmarkIncrementalTest' -benchmem -run '^$$' ./internal/admission

# Incremental (baseline shrink) vs baseline-invalidating release on the
# same fabric (docs/INCREMENTAL.md): the wall-clock rows of the release
# path (TestReleaseWork gates the deterministic counters in tier-1).
bench-release:
	$(GO) test -bench='BenchmarkRelease' -benchmem -run '^$$' ./internal/admission

# Service-level churn benchmark (docs/SERVICE.md): a 10s closed-loop
# admit/release/batch mix, an open-loop Poisson rate sweep (latency from
# scheduled send time, so overload cannot hide behind coordinated
# omission), and the batch-of-32 vs 32-sequential-admits comparison, all
# against one in-process delayd. The decomposed analyzer on a 16-switch
# tandem keeps the serving-layer costs these gates guard (round-trips,
# snapshot commits, churn) the dominant term instead of per-op analysis.
# Emits BENCH_service.json (committed per PR) and fails when the release
# p99 drifts past 2x the admit p99 or the batch p50 speedup drops under 3x.
bench-service:
	$(GO) run ./cmd/delayload -self 16 -analyzer decomposed -duration 10s \
		-concurrency 4 -mix 6:3:1 -open-rates 100,200,400 -open-duration 3s \
		-batch-compare 32 -batch-trials 100 -seed 1 -out BENCH_service.json \
		-gate-release-factor 2 -gate-batch 3

# Focused batch-pipelining gate: re-run the batch-of-32 comparison, fail
# when the batch arm's p50 is not >=3x faster than 32 sequential admits or
# when any envelope committed more than one snapshot, then diff the fresh
# report against the committed BENCH_service.json (regressions in the
# closed-loop p99s or the batch speedup exit 2).
bench-batch:
	$(GO) run ./cmd/delayload -self 16 -analyzer decomposed -duration 1s \
		-concurrency 4 -mix 6:3:1 -batch-compare 32 -batch-trials 100 \
		-seed 1 -out /tmp/bench_batch.json -gate-batch 3
	$(GO) run ./cmd/benchjson -diff BENCH_service.json -tolerance $(BENCH_TOLERANCE) \
		< /tmp/bench_batch.json > /dev/null

# Shard-scaling benchmark (docs/SERVICE.md): the same closed-loop churn at
# 1/2/4/8 engine shards over an 8-block disjoint fabric, every worker
# pinned inside one block and 200 connections per block prefilled so the
# standing-state costs the sharding removes are present from the first
# operation. Emits BENCH_shards.json (committed per PR) and fails when
# 4 shards deliver less than 2x the 1-shard throughput.
bench-shards:
	$(GO) run ./cmd/delayload -shards 1,2,4,8 -duration 5s -concurrency 8 \
		-blocks 8 -block-switches 3 -prefill 200 -rho 0.0001 -deadline 2000 \
		-seed 1 -out BENCH_shards.json -gate-scaling 2

# Curve-engine benchmarks (docs/PERFORMANCE.md): k-way aggregation vs the
# pairwise fold, gated convolution, the end-to-end integrated analysis on
# the 64-switch/400-connection tandem, and the k=8 fat-tree fabric. Emits
# BENCH_curves.json; benchjson sorts results by (pkg, name), so the
# artifact's order is deterministic regardless of package run order.
BENCH_CURVES_MINPLUS = BenchmarkSumN|BenchmarkSumPairwiseFold|BenchmarkConvolveGated
BENCH_CURVES_ANALYSIS = BenchmarkIntegratedAnalyze|BenchmarkFabricAnalyzeK8

bench-curves:
	{ $(GO) test -bench='$(BENCH_CURVES_MINPLUS)' -benchmem -run '^$$' ./internal/minplus ; \
	  $(GO) test -bench='$(BENCH_CURVES_ANALYSIS)' -benchmem -run '^$$' ./internal/analysis ; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_curves.json

# Re-run the bench-curves suite and fail (exit 2) when any benchmark's
# ns/op exceeds BENCH_TOLERANCE times its committed BENCH_curves.json
# entry. The regression diff goes to stderr.
bench-gate:
	{ $(GO) test -bench='$(BENCH_CURVES_MINPLUS)' -benchmem -run '^$$' ./internal/minplus ; \
	  $(GO) test -bench='$(BENCH_CURVES_ANALYSIS)' -benchmem -run '^$$' ./internal/analysis ; } \
	| $(GO) run ./cmd/benchjson -diff BENCH_curves.json -tolerance $(BENCH_TOLERANCE) > /dev/null

# Datacenter-fabric benchmark (docs/PERFORMANCE.md): the integrated
# analysis on a k=22 fat-tree — ~10k switch-port servers, ~100k
# connections — plus the k=8 configuration for quick comparisons.
bench-fabric:
	$(GO) test -bench='BenchmarkFabricAnalyze' -benchmem -run '^$$' -timeout 30m ./internal/analysis

# Fabric benchmark under the profiler: CPU and heap profiles for the k=8
# fat-tree into results/ (inspect with `go tool pprof`). For live profiles
# of the serving path, delayd exposes net/http/pprof via -pprof.
profile-curves:
	mkdir -p results
	$(GO) test -bench='BenchmarkFabricAnalyzeK8' -benchmem -run '^$$' \
		-cpuprofile results/fabric_cpu.pprof -memprofile results/fabric_mem.pprof ./internal/analysis
	@echo "inspect: $(GO) tool pprof results/fabric_cpu.pprof"

cover:
	$(GO) test -cover ./...

# Adversarial bound falsification (docs/FALSIFY.md): hill-climbing search
# for conforming traffic that violates shipped bounds, full scenario
# matrix; exits non-zero and prints a replayable contradiction if any
# bound is crossed.
falsify:
	$(GO) run ./cmd/falsify -seed 1 -out FALSIFY_report.json

# Deterministic CI-budget falsification smoke: four scenarios, small
# iteration budget, both shipped FIFO analyzers; any contradiction fails
# the build.
falsify-smoke:
	$(GO) run ./cmd/falsify -seed 1 -iters 12 -restarts 2 \
		-scenarios tandem2-u80,parkinglot4,star4,line4,fattree2 -analyzers decomposed,integrated

# Regenerate every paper figure and extension experiment (CSV into results/).
figures:
	$(GO) run ./cmd/figures -csv results | tee results/figures.txt

# Start the admission-control daemon on the paper's 4-server tandem
# fabric (see docs/SERVICE.md for the API).
run-delayd:
	$(GO) run ./cmd/delayd -addr :8080 -tandem 4

fuzz:
	$(GO) test -fuzz=FuzzAlgebra -fuzztime=30s ./internal/minplus
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/netspec
	$(GO) test -fuzz=FuzzIncrementalEquivalence -fuzztime=30s ./internal/admission

clean:
	rm -rf results FALSIFY_report.json
