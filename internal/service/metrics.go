package service

import (
	"fmt"
	"io"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"delaycalc/internal/admission"
)

// latencyBuckets are the histogram upper bounds in seconds (a +Inf bucket
// is implicit). Chosen to resolve both sub-millisecond cache hits and
// multi-second worst-case integrated analyses.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts []uint64 // one per bucket in latencyBuckets, cumulative on render
	sum    float64
	count  uint64
}

func (h *histogram) observe(seconds float64) {
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += seconds
	h.count++
}

// analysisStages are the per-stage timing labels in render order; they
// mirror analysis.Timings.
var analysisStages = []string{"aggregate", "partition", "propagate", "theta"}

// Metrics accumulates request counters, an in-flight gauge, and
// per-endpoint latency histograms, and renders them in the Prometheus
// text exposition format without any external dependency.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64 // endpoint -> status code -> count
	hist     map[string]*histogram     // endpoint -> latency histogram
	stages   map[string]*histogram     // analysis stage -> timing histogram
	inFlight int64                     // atomic
	queued   int64                     // atomic: requests waiting for an analysis slot
	degraded uint64                    // atomic: requests finished on decomposed ceilings
	shed     uint64                    // atomic: requests shed at the hard deadline or queue
	// atomic: theta pairs the two-server searches evaluated / pruned
	thetaEvaluated, thetaPruned uint64
	// atomic: closed-form branches the longer searches evaluated / cut
	branchesEvaluated, branchesCut uint64
}

// NewMetrics builds an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]map[int]uint64),
		hist:     make(map[string]*histogram),
		stages:   make(map[string]*histogram),
	}
}

// RequestStarted increments the in-flight gauge.
func (m *Metrics) RequestStarted() { atomic.AddInt64(&m.inFlight, 1) }

// RequestFinished decrements the in-flight gauge and records the request's
// endpoint, status code, and latency.
func (m *Metrics) RequestFinished(endpoint string, code int, seconds float64) {
	atomic.AddInt64(&m.inFlight, -1)
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode, ok := m.requests[endpoint]
	if !ok {
		byCode = make(map[int]uint64)
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	h, ok := m.hist[endpoint]
	if !ok {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.hist[endpoint] = h
	}
	h.observe(seconds)
}

// QueueEntered / QueueLeft track the analysis-slot wait queue.
func (m *Metrics) QueueEntered() { atomic.AddInt64(&m.queued, 1) }
func (m *Metrics) QueueLeft()    { atomic.AddInt64(&m.queued, -1) }

// DegradedServed counts one request finished on decomposed ceilings.
func (m *Metrics) DegradedServed() { atomic.AddUint64(&m.degraded, 1) }

// Degraded returns the cumulative degraded-request count.
func (m *Metrics) Degraded() uint64 { return atomic.LoadUint64(&m.degraded) }

// RequestShed counts one request rejected with 503 (hard deadline passed
// before an analysis slot or result was available).
func (m *Metrics) RequestShed() { atomic.AddUint64(&m.shed, 1) }

// observeThetaPairs adds one analysis run's theta-pair counts
// (analysis.Timings.ThetaPairs / ThetaEvaluated).
func (m *Metrics) observeThetaPairs(pairs, evaluated int64) {
	atomic.AddUint64(&m.thetaEvaluated, uint64(evaluated))
	atomic.AddUint64(&m.thetaPruned, uint64(pairs-evaluated))
}

// observeThetaBranches adds one analysis run's closed-form branch counts
// (analysis.Timings.ThetaBranches / ThetaBranchesCut).
func (m *Metrics) observeThetaBranches(faced, cut int64) {
	atomic.AddUint64(&m.branchesEvaluated, uint64(faced-cut))
	atomic.AddUint64(&m.branchesCut, uint64(cut))
}

// ObserveStage records one analysis stage's accumulated time in seconds.
// Stage names come from analysis.Timings.StageSeconds.
func (m *Metrics) ObserveStage(stage string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stages[stage]
	if !ok {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.stages[stage] = h
	}
	h.observe(seconds)
}

// gaugeLine formats one sample line.
func gaugeLine(w io.Writer, name, labels string, value float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %s\n", name, labels, strconv.FormatFloat(value, 'g', -1, 64))
}

// WriteText renders every metric in the text exposition format with
// deterministic ordering. The extra gauges (cache, admission) are sampled
// from the Server that owns this Metrics via the write* helpers below.
func (m *Metrics) WriteText(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	fmt.Fprintln(w, "# HELP delayd_requests_total Requests served, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE delayd_requests_total counter")
	for _, ep := range endpoints {
		codes := make([]int, 0, len(m.requests[ep]))
		for code := range m.requests[ep] {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			gaugeLine(w, "delayd_requests_total",
				fmt.Sprintf(`endpoint=%q,code="%d"`, ep, code), float64(m.requests[ep][code]))
		}
	}

	fmt.Fprintln(w, "# HELP delayd_in_flight_requests Requests currently being handled.")
	fmt.Fprintln(w, "# TYPE delayd_in_flight_requests gauge")
	gaugeLine(w, "delayd_in_flight_requests", "", float64(atomic.LoadInt64(&m.inFlight)))

	fmt.Fprintln(w, "# HELP delayd_analysis_queue_depth Requests waiting for an analysis slot.")
	fmt.Fprintln(w, "# TYPE delayd_analysis_queue_depth gauge")
	gaugeLine(w, "delayd_analysis_queue_depth", "", float64(atomic.LoadInt64(&m.queued)))

	fmt.Fprintln(w, "# HELP delayd_degraded_requests_total Requests whose analysis outlived its soft budget and finished, in one pass, on decomposed ceilings.")
	fmt.Fprintln(w, "# TYPE delayd_degraded_requests_total counter")
	gaugeLine(w, "delayd_degraded_requests_total", "", float64(atomic.LoadUint64(&m.degraded)))

	fmt.Fprintln(w, "# HELP delayd_shed_requests_total Requests shed with 503 at the hard deadline or while queued.")
	fmt.Fprintln(w, "# TYPE delayd_shed_requests_total counter")
	gaugeLine(w, "delayd_shed_requests_total", "", float64(atomic.LoadUint64(&m.shed)))

	fmt.Fprintln(w, "# HELP delayd_analysis_stage_seconds Per-analysis stage time (partition/aggregate/theta/propagate), by stage.")
	fmt.Fprintln(w, "# TYPE delayd_analysis_stage_seconds histogram")
	for _, st := range analysisStages {
		h := m.stages[st]
		if h == nil {
			h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		}
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			gaugeLine(w, "delayd_analysis_stage_seconds_bucket",
				fmt.Sprintf(`stage=%q,le="%s"`, st, strconv.FormatFloat(ub, 'g', -1, 64)), float64(cum))
		}
		gaugeLine(w, "delayd_analysis_stage_seconds_bucket", fmt.Sprintf(`stage=%q,le="+Inf"`, st), float64(h.count))
		gaugeLine(w, "delayd_analysis_stage_seconds_sum", fmt.Sprintf("stage=%q", st), h.sum)
		gaugeLine(w, "delayd_analysis_stage_seconds_count", fmt.Sprintf("stage=%q", st), float64(h.count))
	}

	fmt.Fprintln(w, "# HELP delayd_analysis_theta_pairs_total Theta pairs of the two-server searches, by outcome (evaluated, or pruned by their lower bound).")
	fmt.Fprintln(w, "# TYPE delayd_analysis_theta_pairs_total counter")
	gaugeLine(w, "delayd_analysis_theta_pairs_total", `outcome="evaluated"`, float64(atomic.LoadUint64(&m.thetaEvaluated)))
	gaugeLine(w, "delayd_analysis_theta_pairs_total", `outcome="pruned"`, float64(atomic.LoadUint64(&m.thetaPruned)))

	fmt.Fprintln(w, "# HELP delayd_analysis_theta_branches_total Closed-form branches of the searches over three or more servers, by outcome (evaluated, or cut by zero-jump domination and early exit).")
	fmt.Fprintln(w, "# TYPE delayd_analysis_theta_branches_total counter")
	gaugeLine(w, "delayd_analysis_theta_branches_total", `outcome="evaluated"`, float64(atomic.LoadUint64(&m.branchesEvaluated)))
	gaugeLine(w, "delayd_analysis_theta_branches_total", `outcome="cut"`, float64(atomic.LoadUint64(&m.branchesCut)))

	fmt.Fprintln(w, "# HELP delayd_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE delayd_request_duration_seconds histogram")
	for _, ep := range endpoints {
		h := m.hist[ep]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			gaugeLine(w, "delayd_request_duration_seconds_bucket",
				fmt.Sprintf(`endpoint=%q,le="%s"`, ep, strconv.FormatFloat(ub, 'g', -1, 64)), float64(cum))
		}
		gaugeLine(w, "delayd_request_duration_seconds_bucket",
			fmt.Sprintf(`endpoint=%q,le="+Inf"`, ep), float64(h.count))
		gaugeLine(w, "delayd_request_duration_seconds_sum", fmt.Sprintf("endpoint=%q", ep), h.sum)
		gaugeLine(w, "delayd_request_duration_seconds_count", fmt.Sprintf("endpoint=%q", ep), float64(h.count))
	}
}

// runtimeSeries are the Go runtime's allocation readings /metrics exports,
// by the runtime/metrics name each is read from.
var runtimeSeries = []struct{ name, kind, help, sample string }{
	{"delayd_go_gc_cycles_total", "counter", "Completed garbage-collection cycles of the process.", "/gc/cycles/total:gc-cycles"},
	{"delayd_go_alloc_bytes_total", "counter", "Bytes the process has allocated on the heap since start.", "/gc/heap/allocs:bytes"},
	{"delayd_go_heap_live_bytes", "gauge", "Heap bytes the last garbage collection found live.", "/gc/heap/live:bytes"},
}

// writeRuntimeMetrics renders the process's allocation readings, read
// through runtime/metrics at scrape time: no stop-the-world, unlike
// runtime.ReadMemStats. They are process-wide, the same on every network's
// page.
func writeRuntimeMetrics(w io.Writer) {
	samples := make([]rtmetrics.Sample, len(runtimeSeries))
	for i, s := range runtimeSeries {
		samples[i].Name = s.sample
	}
	rtmetrics.Read(samples)
	for i, s := range runtimeSeries {
		v := 0.0
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			v = float64(samples[i].Value.Uint64())
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.kind)
		gaugeLine(w, s.name, "", v)
	}
}

// writeCacheMetrics renders the analyze-cache counters.
func writeCacheMetrics(w io.Writer, c *Cache) {
	hits, misses := c.Stats()
	fmt.Fprintln(w, "# HELP delayd_cache_hits_total Analyze-cache hits.")
	fmt.Fprintln(w, "# TYPE delayd_cache_hits_total counter")
	gaugeLine(w, "delayd_cache_hits_total", "", float64(hits))
	fmt.Fprintln(w, "# HELP delayd_cache_misses_total Analyze-cache misses.")
	fmt.Fprintln(w, "# TYPE delayd_cache_misses_total counter")
	gaugeLine(w, "delayd_cache_misses_total", "", float64(misses))
	fmt.Fprintln(w, "# HELP delayd_cache_hit_ratio Hits over lookups since start (0 when no lookups).")
	fmt.Fprintln(w, "# TYPE delayd_cache_hit_ratio gauge")
	ratio := 0.0
	if total := hits + misses; total > 0 {
		ratio = float64(hits) / float64(total)
	}
	gaugeLine(w, "delayd_cache_hit_ratio", "", ratio)
	fmt.Fprintln(w, "# HELP delayd_cache_entries Resident analyze-cache entries.")
	fmt.Fprintln(w, "# TYPE delayd_cache_entries gauge")
	gaugeLine(w, "delayd_cache_entries", "", float64(c.Len()))
}

// writeEngineMetrics renders the admission engine's counters: how many
// tests ran incrementally versus as full re-analyses, how often an Admit
// commit lost the version race, and the affected-set size histogram (how
// many existing connections each test's incremental closure touched).
func writeEngineMetrics(w io.Writer, st *State) {
	stats := st.Engine().Stats()
	fmt.Fprintln(w, "# HELP delayd_admission_incremental_enabled Always 1: every admission analyzer has a baseline, so every one is incremental (kept for dashboards).")
	fmt.Fprintln(w, "# TYPE delayd_admission_incremental_enabled gauge")
	gaugeLine(w, "delayd_admission_incremental_enabled", "", 1)

	fmt.Fprintln(w, "# HELP delayd_admission_tests_total Admission analyses, by path.")
	fmt.Fprintln(w, "# TYPE delayd_admission_tests_total counter")
	gaugeLine(w, "delayd_admission_tests_total", `mode="incremental"`, float64(stats.IncrementalTests))
	gaugeLine(w, "delayd_admission_tests_total", `mode="full"`, float64(stats.FullTests))

	fmt.Fprintln(w, "# HELP delayd_admission_releases_total Connection releases, by how the baseline absorbed them.")
	fmt.Fprintln(w, "# TYPE delayd_admission_releases_total counter")
	gaugeLine(w, "delayd_admission_releases_total", `mode="incremental"`, float64(stats.IncrementalReleases))
	gaugeLine(w, "delayd_admission_releases_total", `mode="compacted"`, float64(stats.CompactedReleases))

	fmt.Fprintln(w, "# HELP delayd_admission_baseline_epoch Generation of the analysis baseline (bumps on every rebuild or shrink).")
	fmt.Fprintln(w, "# TYPE delayd_admission_baseline_epoch gauge")
	gaugeLine(w, "delayd_admission_baseline_epoch", "", float64(stats.BaselineEpoch))

	fmt.Fprintln(w, "# HELP delayd_admission_commit_conflicts_total Admit retries forced by a concurrent commit.")
	fmt.Fprintln(w, "# TYPE delayd_admission_commit_conflicts_total counter")
	gaugeLine(w, "delayd_admission_commit_conflicts_total", "", float64(stats.CommitConflicts))

	fmt.Fprintln(w, "# HELP delayd_admission_affected_connections Admitted connections inside each test's interference closure.")
	fmt.Fprintln(w, "# TYPE delayd_admission_affected_connections histogram")
	bounds := admission.AffectedBucketBounds()
	cum := uint64(0)
	for i, ub := range bounds {
		cum += stats.AffectedBuckets[i]
		gaugeLine(w, "delayd_admission_affected_connections_bucket",
			fmt.Sprintf(`le="%s"`, strconv.FormatFloat(ub, 'g', -1, 64)), float64(cum))
	}
	gaugeLine(w, "delayd_admission_affected_connections_bucket", `le="+Inf"`, float64(stats.AffectedCount))
	gaugeLine(w, "delayd_admission_affected_connections_sum", "", float64(stats.AffectedSum))
	gaugeLine(w, "delayd_admission_affected_connections_count", "", float64(stats.AffectedCount))

	fmt.Fprintln(w, "# HELP delayd_admission_shards Engine shards the fabric is partitioned into.")
	fmt.Fprintln(w, "# TYPE delayd_admission_shards gauge")
	gaugeLine(w, "delayd_admission_shards", "", float64(stats.Shards))

	fmt.Fprintln(w, "# HELP delayd_admission_cross_shard_commits_total Global epoch-stamped commits (component merges plus rebalances).")
	fmt.Fprintln(w, "# TYPE delayd_admission_cross_shard_commits_total counter")
	gaugeLine(w, "delayd_admission_cross_shard_commits_total", "", float64(stats.CrossShardCommits))

	fmt.Fprintln(w, "# HELP delayd_admission_rebalances_total Release-triggered component migrations onto empty shards.")
	fmt.Fprintln(w, "# TYPE delayd_admission_rebalances_total counter")
	gaugeLine(w, "delayd_admission_rebalances_total", "", float64(stats.Rebalances))

	fmt.Fprintln(w, "# HELP delayd_admission_shard_admitted Admitted connections per engine shard.")
	fmt.Fprintln(w, "# TYPE delayd_admission_shard_admitted gauge")
	for i, sh := range stats.PerShard {
		gaugeLine(w, "delayd_admission_shard_admitted", fmt.Sprintf(`shard="%d"`, i), float64(sh.Admitted))
	}

	fmt.Fprintln(w, "# HELP delayd_admission_shard_version Snapshot version per engine shard.")
	fmt.Fprintln(w, "# TYPE delayd_admission_shard_version gauge")
	for i, sh := range stats.PerShard {
		gaugeLine(w, "delayd_admission_shard_version", fmt.Sprintf(`shard="%d"`, i), float64(sh.Version))
	}
}

// writeAdmissionMetrics renders the current admitted-set gauges.
func writeAdmissionMetrics(w io.Writer, st *State) {
	conns, _, util := st.ReadView()
	count, servers := len(conns), st.servers
	fmt.Fprintln(w, "# HELP delayd_admitted_connections Currently admitted connections.")
	fmt.Fprintln(w, "# TYPE delayd_admitted_connections gauge")
	gaugeLine(w, "delayd_admitted_connections", "", float64(count))
	fmt.Fprintln(w, "# HELP delayd_server_utilization Long-run utilization of each fabric server.")
	fmt.Fprintln(w, "# TYPE delayd_server_utilization gauge")
	for i, u := range util {
		name := servers[i].Name
		if name == "" {
			name = strconv.Itoa(i)
		}
		if math.IsNaN(u) {
			u = 0
		}
		gaugeLine(w, "delayd_server_utilization", fmt.Sprintf("server=%q", name), u)
	}
}
