package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark workload: a function that sets up fresh
// state and runs one round — a fixed, seeded operation sequence — and the
// three latency classes its end-to-end rows report.
type workload struct {
	name string
	why  string
	// slots names the classes reported as primary_*, secondary_* and
	// tertiary_* (see README.md for the table).
	slots [3]string
	round func(env *roundEnv) (*roundData, error)
}

// roundEnv is what a round is generated from.
type roundEnv struct {
	seed  int64
	round int
	// scale multiplies every operation count; 1 is the benchmark, the
	// tests run a few hundred operations.
	scale float64
	// tr is nil in the timed run. In the traced run the round applies its
	// sequence in lock-step to the layer replicas and records spans.
	tr *tracer
}

func (e *roundEnv) count(n int) int {
	if m := int(float64(n) * e.scale); m >= 1 {
		return m
	}
	return 1
}

func (e *roundEnv) rngSeed(stream string) int64 { return subSeed(e.seed, e.round, stream) }

// roundData is what one round measured.
type roundData struct {
	setup     time.Duration
	wall, cpu time.Duration // the timed window
	attempted int
	failed    int
	lat       map[string][]float64 // latency samples per class, ms, in issue order
	heapMB    float64
	// counts are readings taken once after the window (the first round's
	// are reported); samples are per-layer timing samples and per-round
	// ratios (pooled over rounds, the median is reported).
	counts  map[string]float64
	samples map[string][]float64
	opHash  uint64
	digest  uint64 // FNV over the bits of every bound the checks saw
	checks  []string
}

func newRoundData() *roundData {
	return &roundData{lat: map[string][]float64{}, counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (rd *roundData) observe(class string, d time.Duration) {
	rd.lat[class] = append(rd.lat[class], float64(d.Nanoseconds())/1e6)
}

func (rd *roundData) sample(metric string, v float64) {
	rd.samples[metric] = append(rd.samples[metric], v)
}

// failCheck records an output check that did not hold.
func (rd *roundData) failCheck(format string, args ...any) {
	rd.checks = append(rd.checks, fmt.Sprintf(format, args...))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux: KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window brackets the timed part of a round. Memory statistics are read
// outside the timed interval (ReadMemStats stops the world).
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

// close ends the window and files the process's own readings.
func (w *window) close(rd *roundData) {
	rd.wall = time.Since(w.start)
	rd.cpu = cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rd.sample("proc.gc_cycles", float64(m.NumGC-w.mem.NumGC))
	rd.sample("proc.gc_pause_total_ms", float64(m.PauseTotalNs-w.mem.PauseTotalNs)/1e6)
	if rd.attempted > 0 {
		rd.sample("proc.allocs_per_op", float64(m.Mallocs-w.mem.Mallocs)/float64(rd.attempted))
		rd.sample("proc.alloc_bytes_per_op", float64(m.TotalAlloc-w.mem.TotalAlloc)/float64(rd.attempted))
	}
}

// liveHeap forces a collection and files the live heap, while the
// round's state is still reachable.
func (rd *roundData) liveHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rd.heapMB = float64(m.HeapAlloc) / (1 << 20)
}

// result is one run of one workload.
type result struct {
	workload  *workload
	seed      int64
	rounds    int
	attempted int
	failed    int
	checks    []string
	opHash    uint64
	digest    uint64
	metrics   map[string]float64
	samples   map[string]int // how many samples each metric rests on
	counts    map[string]float64
	tr        *tracer // the traced run's spans; nil in the timed run
}

func (r *result) correct() bool { return len(r.checks) == 0 }

// runWorkload runs rounds of w until their timed windows add up to
// seconds (always at least one round; seconds 0 is exactly one), then
// reduces them to the declared metrics. In a traced run the first round
// is untimed-by-trace (the reference for the tracing overhead and the
// source of the scraped counts) and every later round is traced.
func runWorkload(w *workload, seed int64, seconds, scale float64, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var rounds []*roundData
	var measured time.Duration
	for r := 0; ; r++ {
		env := &roundEnv{seed: seed, round: r, scale: scale}
		if traced && r > 0 {
			env.round, env.tr = r-1, tr
		}
		rd, err := w.round(env)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		rounds = append(rounds, rd)
		measured += rd.wall
		if measured.Seconds() >= seconds && (!traced || r > 0) {
			break
		}
	}

	res := &result{workload: w, seed: seed, rounds: len(rounds),
		metrics: map[string]float64{}, samples: map[string]int{}, counts: rounds[0].counts}
	for _, rd := range rounds {
		res.attempted += rd.attempted
		res.failed += rd.failed
		res.checks = append(res.checks, rd.checks...)
	}
	res.opHash, res.digest = rounds[0].opHash, rounds[0].digest
	if traced {
		if err := probeLayers(rounds[len(rounds)-1]); err != nil {
			return nil, err
		}
		res.reducePerLayer(rounds, tr)
		res.tr = tr
	} else {
		res.reduceEndToEnd(rounds)
	}
	return res, nil
}

// reduceEndToEnd fills the end-to-end metrics from the timed rounds.
// Every time-like metric is taken per round and reduced with bestQuartile;
// set-up time and live heap, which the contract and the collector make
// two-sided, are medians over rounds.
func (r *result) reduceEndToEnd(rounds []*roundData) {
	n := len(rounds)
	setups, heaps, rate, cpu := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, rd := range rounds {
		setups[i] = rd.setup.Seconds()
		heaps[i] = rd.heapMB
		rate[i] = -float64(rd.attempted) / rd.wall.Seconds() // negated: higher is better
		cpu[i] = rd.cpu.Seconds() * 1e3 / float64(rd.attempted)
	}
	r.set("setup_s", median(setups), n)
	r.set("live_heap_mb", median(heaps), n)
	r.set("ops_per_s", -bestQuartile(rate), r.attempted)
	r.set("cpu_ms_per_op", bestQuartile(cpu), r.attempted)
	for i, slot := range []string{"primary", "secondary", "tertiary"} {
		var p50s []float64
		samples := 0
		for _, rd := range rounds {
			if lat := rd.lat[r.workload.slots[i]]; len(lat) > 0 {
				p50s = append(p50s, median(lat))
				samples += len(lat)
			}
		}
		r.set(slot+"_p50_ms", bestQuartile(p50s), samples)
	}
}

// reducePerLayer fills the per-layer metrics: scraped counts from the
// first (untraced) round, medians of the samples the traced rounds filed,
// and medians of span durations and self times.
func (r *result) reducePerLayer(rounds []*roundData, tr *tracer) {
	for name, v := range rounds[0].counts {
		r.set(name, v, 1)
	}
	pool := map[string][]float64{}
	for _, rd := range rounds {
		for name, vs := range rd.samples {
			pool[name] = append(pool[name], vs...)
		}
	}
	times := tr.times()
	for _, m := range spanMetrics {
		st := times[m.layer+"/"+m.span]
		if st == nil {
			continue
		}
		vs := st.total
		if m.self {
			vs = st.self
		}
		for _, v := range vs {
			pool[m.metric] = append(pool[m.metric], v/m.div)
		}
	}
	for name, vs := range pool {
		r.set(name, median(vs), len(vs))
	}
	var tracedWall []float64
	for _, rd := range rounds[1:] {
		tracedWall = append(tracedWall, rd.wall.Seconds())
	}
	r.set("load.trace_overhead_ratio", median(tracedWall)/rounds[0].wall.Seconds(), len(tracedWall))
	for i, slot := range []string{"primary", "secondary"} {
		var segs [][]float64
		samples := 0
		for _, rd := range rounds {
			segs = append(segs, rd.lat[r.workload.slots[i]])
			samples += len(rd.lat[r.workload.slots[i]])
		}
		r.set("load."+slot+"_p99_ms", segmentMedianP99(segs), samples)
	}
	r.set("load.failed_ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	r.set("proc.peak_rss_mb", peakRSSMB(), 1)
	r.set("proc.goroutines_end", float64(runtime.NumGoroutine()), 1)
	if r.workload.name == "analyze-full" && (tr.has("service") || tr.has("admission")) {
		r.checks = append(r.checks, "analyze-full recorded a service or admission span")
	}
}

func (r *result) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
	r.samples[name] = n
}

// spanMetric maps one per-layer metric to the spans it is the median of.
type spanMetric struct {
	metric      string
	layer, span string
	self        bool
	div         float64 // microseconds per reported unit
}

var spanMetrics = buildSpanMetrics()

func buildSpanMetrics() []spanMetric {
	ms := []spanMetric{
		{"service.http_floor_us", "service", "http.healthz", false, 1},
		{"service.analyze_hit_us", "service", "http.analyze_hit", false, 1},
		{"service.analyze_miss_ms", "service", "http.analyze_miss", false, 1e3},
		{"admission.affected_set_us", "admission", "affected_set", false, 1},
		{"admission.read_view_us", "admission", "engine.list", false, 1},
		{"analysis.extend_us", "analysis", "extend", false, 1},
		{"analysis.shrink_us", "analysis", "shrink", false, 1},
		{"analysis.new_baseline_ms", "analysis", "new_baseline", false, 1e3},
		{"netspec.conn_from_spec_us", "netspec", "conn_from_spec", false, 1},
		{"topo.validate_extend_us", "topo", "validate_extend", false, 1},
	}
	for _, class := range []string{"admit", "release", "batch", "test", "list"} {
		ms = append(ms, spanMetric{"service." + class + "_self_us", "service", "http." + class, true, 1})
	}
	for _, class := range []string{"admit", "release", "batch", "test"} {
		ms = append(ms,
			spanMetric{"admission." + class + "_us", "admission", "engine." + class, false, 1},
			spanMetric{"admission." + class + "_self_us", "admission", "engine." + class, true, 1})
	}
	for _, it := range analyzeItems {
		ms = append(ms, spanMetric{"analysis." + it.metric(), "analysis", it.key, false, it.div()})
	}
	return ms
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
