package main

// metricDecl declares one metric as BENCHMARK.json lists it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share by which it may worsen
}

// runSeconds is how long one run measures by default, and what
// BENCHMARK.json asks the driver for.
const runSeconds = 20

// endToEnd is what a user of the system sees, reported by every workload.
// primary/secondary/tertiary are the workload's three latency classes
// (workload.slots). Every timing carries the largest bound the contract
// allows: on the shared 2-core reference box ten runs of one commit
// scatter by 5-20% (README.md, Reference numbers), and a bound inside
// the scatter would reject unchanged code.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"primary_p50_ms", "ms", "lower", 0.25},
	{"secondary_p50_ms", "ms", "lower", 0.25},
	{"tertiary_p50_ms", "ms", "lower", 0.25},
}

// perLayer is what single layers report in the traced run. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDecl{
	// service: HTTP mux, JSON, slot semaphore, analyze cache, metrics.
	{Name: "service.http_floor_us", Unit: "us", Better: "lower"},
	{Name: "service.admit_self_us", Unit: "us", Better: "lower"},
	{Name: "service.release_self_us", Unit: "us", Better: "lower"},
	{Name: "service.batch_self_us", Unit: "us", Better: "lower"},
	{Name: "service.test_self_us", Unit: "us", Better: "lower"},
	{Name: "service.list_self_us", Unit: "us", Better: "lower"},
	{Name: "service.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "service.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "service.list_restarts", Unit: "count", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.analyze_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.analyze_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "service.shed_total", Unit: "count", Better: "lower"},
	{Name: "service.degraded_total", Unit: "count", Better: "lower"},
	// netspec: spec decode, encode, digest.
	{Name: "netspec.conn_from_spec_us", Unit: "us", Better: "lower"},
	{Name: "netspec.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "netspec.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "netspec.digest_us", Unit: "us", Better: "lower"},
	// admission: snapshot, affected set, shard routing, commit, compaction, batch pipeline.
	{Name: "admission.admit_us", Unit: "us", Better: "lower"},
	{Name: "admission.release_us", Unit: "us", Better: "lower"},
	{Name: "admission.batch_us", Unit: "us", Better: "lower"},
	{Name: "admission.test_us", Unit: "us", Better: "lower"},
	{Name: "admission.admit_self_us", Unit: "us", Better: "lower"},
	{Name: "admission.release_self_us", Unit: "us", Better: "lower"},
	{Name: "admission.batch_self_us", Unit: "us", Better: "lower"},
	{Name: "admission.test_self_us", Unit: "us", Better: "lower"},
	{Name: "admission.accept_us", Unit: "us", Better: "lower"},
	{Name: "admission.reject_us", Unit: "us", Better: "lower"},
	{Name: "admission.affected_set_us", Unit: "us", Better: "lower"},
	{Name: "admission.read_view_us", Unit: "us", Better: "lower"},
	{Name: "admission.tests_incremental", Unit: "count", Better: "higher"},
	{Name: "admission.tests_full", Unit: "count", Better: "lower"},
	{Name: "admission.releases_incremental", Unit: "count", Better: "higher"},
	{Name: "admission.releases_compacted", Unit: "count", Better: "lower"},
	{Name: "admission.compaction_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admission.commits", Unit: "count", Better: "lower"},
	{Name: "admission.commits_per_envelope", Unit: "ratio", Better: "lower"},
	{Name: "admission.commit_conflicts", Unit: "count", Better: "lower"},
	{Name: "admission.cross_shard_commits", Unit: "count", Better: "lower"},
	{Name: "admission.rebalances", Unit: "count", Better: "lower"},
	{Name: "admission.affected_mean", Unit: "count", Better: "lower"},
	{Name: "admission.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admission.admitted_final", Unit: "count", Better: "higher"},
	// analysis, incremental: baseline, extend, shrink.
	{Name: "analysis.extend_us", Unit: "us", Better: "lower"},
	{Name: "analysis.shrink_us", Unit: "us", Better: "lower"},
	{Name: "analysis.new_baseline_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.replayed_units_per_op", Unit: "count", Better: "higher"},
	{Name: "analysis.recomputed_units_per_op", Unit: "count", Better: "lower"},
	{Name: "analysis.replay_ratio", Unit: "ratio", Better: "higher"},
	{Name: "analysis.affected_per_op", Unit: "count", Better: "lower"},
	// analysis, full: the stages of one pass and each item of the set.
	{Name: "analysis.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.theta_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.propagate_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.ft16_int_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.ft8_int_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.ft8_dec_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.pt64_int_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.pt64_dec_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.pt64_sc_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.rf_int_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.rf_int4_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.sp64_isp_us", Unit: "us", Better: "lower"},
	{Name: "analysis.sp64_dec_us", Unit: "us", Better: "lower"},
	{Name: "analysis.edf64_dec_us", Unit: "us", Better: "lower"},
	{Name: "analysis.gr64_gr_us", Unit: "us", Better: "lower"},
	{Name: "analysis.gr64_dec_us", Unit: "us", Better: "lower"},
	{Name: "analysis.components_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.allocs_per_pass", Unit: "count", Better: "lower"},
	{Name: "analysis.bytes_per_pass", Unit: "B", Better: "lower"},
	// minplus: curve kernels on fixed curve sets.
	{Name: "minplus.sumn_ns", Unit: "ns", Better: "lower"},
	{Name: "minplus.sumn_mixed_ns", Unit: "ns", Better: "lower"},
	{Name: "minplus.convolve_gated_ns", Unit: "ns", Better: "lower"},
	{Name: "minplus.hdev_ns", Unit: "ns", Better: "lower"},
	{Name: "minplus.deconvolve_ns", Unit: "ns", Better: "lower"},
	{Name: "minplus.kernel_allocs", Unit: "count", Better: "lower"},
	// topo: builders, Checker, ConnectionIndex, topological order.
	{Name: "topo.checker_new_us", Unit: "us", Better: "lower"},
	{Name: "topo.validate_extend_us", Unit: "us", Better: "lower"},
	{Name: "topo.conn_index_us", Unit: "us", Better: "lower"},
	{Name: "topo.toposort_ms", Unit: "ms", Better: "lower"},
	{Name: "topo.fattree16_build_ms", Unit: "ms", Better: "lower"},
	// proc and load: the process's and the generator's own readings.
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "load.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "load.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "load.slo_ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "load.primary_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.secondary_p99_ms", Unit: "ms", Better: "lower"},
}

// workloads is the benchmark, in BENCHMARK.json order.
var workloads = []*workload{
	{
		name:  "serve-churn",
		why:   "cheap Decomposed admits, releases and 32-op envelopes from 1 closed-loop client: service+admission carry the cost, analysis little; primary=admit secondary=release tertiary=batch",
		slots: [3]string{"admit", "release", "batch"},
		round: serveChurn.round,
	},
	{
		name:  "shard-churn",
		why:   "Integrated churn on 4 shards, 2 closed-loop clients pinned to their own blocks: incremental replay and curve kernels carry the cost, HTTP little; primary=admit secondary=release tertiary=batch",
		slots: [3]string{"admit", "release", "batch"},
		round: shardChurn.round,
	},
	{
		name:  "analyze-full",
		why:   "whole-network analyses (fat-trees, paper tandem, random feed-forward, SP/EDF/GR) with no daemon: service and admission are bypassed; primary=pass secondary=k16 fat-tree tertiary=64-switch paper tandem",
		slots: [3]string{"pass", "ft16_int", "pt64_int"},
		round: analyzeRound,
	},
	{
		name:  "serve-read",
		why:   "open-loop 200 req/s Poisson readers (dry-run tests, list paging, cached analyze) beside a trickle of writes, latency from due time; primary=test secondary=list tertiary=analyze",
		slots: [3]string{"test", "list", "analyze"},
		round: readRound,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
