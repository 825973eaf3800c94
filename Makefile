# delaycalc — build/test/reproduce targets. Run `make help` for a summary.

GO ?= go

.PHONY: all build test race bench bench-check microbench bench-admit bench-release bench-fabric profile-curves cover figures fuzz run-delayd falsify falsify-smoke help clean

all: build test

help:
	@echo "delaycalc targets:"
	@echo "  build          compile and vet everything"
	@echo "  test           run the full test suite"
	@echo "  race           test suite under the race detector"
	@echo "  bench          the repository benchmark (bench/run.sh), all four workloads"
	@echo "  bench-check    vet and test the bench/ module"
	@echo "  microbench     every go test -bench function in the tree"
	@echo "  bench-admit    full vs incremental admission microbenchmark"
	@echo "  bench-release  incremental vs invalidating release microbenchmark"
	@echo "  bench-fabric   10k-switch fat-tree analysis benchmark"
	@echo "  profile-curves fabric benchmark with CPU/heap profiles -> results/"
	@echo "  cover          test suite with coverage"
	@echo "  figures        regenerate paper figures and CSVs"
	@echo "  falsify        adversarial bound falsification, full matrix -> FALSIFY_report.json"
	@echo "  falsify-smoke  CI-budget falsification over 6 scenarios (fails on contradiction)"
	@echo "  fuzz           fuzz min-plus algebra (residual kernel arm included), netspec decode, incremental admission, reply writer"
	@echo "  run-delayd     start the admission daemon on the paper tandem"
	@echo "  clean          remove generated, untracked artifacts"

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark (bench/README.md, BENCHMARK.json): the only
# way to make a performance claim. Each workload prints its end-to-end
# metrics as one JSON object on its last line; a claim compares alternating
# runs of this at the parent commit and at the change (README.md, "Making a
# performance claim").
bench:
	for w in serve-churn shard-churn analyze-full serve-read; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# bench/ is a module of its own that `go build ./...` at the root never
# compiles: run this after any internal/ API change.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

microbench:
	$(GO) test -bench=. -benchmem ./...

# Full vs incremental admission test on the 200-connection, 32-switch
# tandem (docs/INCREMENTAL.md). A microbenchmark for working on the test
# path, not a claim harness: TestIncrementalWork gates the deterministic
# counters in tier-1, and shard-churn's primary_p50_ms carries the latency.
bench-admit:
	$(GO) test -bench='BenchmarkFullTest|BenchmarkIncrementalTest' -benchmem -run '^$$' ./internal/admission

# Incremental (baseline shrink) vs baseline-invalidating release on the
# same fabric (docs/INCREMENTAL.md). A microbenchmark for working on the
# release path: TestReleaseWork gates the deterministic counters in
# tier-1, and the churn workloads' secondary_p50_ms carries the latency.
bench-release:
	$(GO) test -bench='BenchmarkRelease' -benchmem -run '^$$' ./internal/admission

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

# Deterministic CI-budget falsification smoke: six scenarios, small
# iteration budget (the greedy and the staggered start), the paper's three
# algorithms (Decomposed, Service Curve, Integrated); any contradiction
# fails the build.
falsify-smoke:
	$(GO) run ./cmd/falsify -seed 1 -iters 12 -restarts 2 \
		-scenarios tandem2-u80,parkinglot4,star4,line4,fattree2,burstycross2 -analyzers decomposed,servicecurve,integrated

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
	$(GO) test -fuzz=FuzzReplyBytes -fuzztime=30s ./internal/service

# Removes only what the targets above generate and git does not track;
# results/*.csv and results/figures.txt are committed (README cites them).
clean:
	rm -rf .bench_build FALSIFY_report.json results/*.pprof analysis.test
