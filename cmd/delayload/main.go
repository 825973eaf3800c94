// Command delayload is a closed-loop churn load generator for the delayd
// admission API. It drives a live daemon (or an in-process one it starts
// itself) with a configurable mix of admit, release, and mixed-batch
// operations, measures per-operation latency and end-to-end throughput,
// and writes the percentile summary to a JSON report — the service-level
// benchmark committed per PR as BENCH_service.json.
//
// Usage:
//
//	delayload [-target http://host:8080 -servers s0,s1,...] | [-self 8]
//	          [-network default] [-duration 10s] [-concurrency 4] [-mix 6:3:1]
//	          [-rate 0] [-seed 1] [-rho 0.002] [-deadline 100]
//	          [-out BENCH_service.json] [-gate-release-factor 0]
//
//	delayload -shards 1,2,4,8 [-blocks 8] [-block-switches 3] ...
//	          [-out BENCH_shards.json] [-gate-scaling 0]
//
// With -target, delayload aims at a running delayd and -servers must name
// the fabric servers in path order (generated connections take random
// contiguous sub-paths). Without -target, delayload starts an in-process
// delayd over a -self N-server tandem on a loopback listener and drives
// that — the configuration the CI smoke job uses. Operations go through
// the network-scoped /v2 API against the -network tenant.
//
// Each worker runs a closed loop: it issues one operation, waits for the
// response, records the latency under the operation's class, and issues
// the next. -rate caps the aggregate operation rate (0 = unthrottled).
// The -mix a:r:b weights choose between single admissions (POST
// .../connections), releases of previously admitted connections (DELETE
// .../connections/{name}), and small mixed batches (POST .../batch).
//
// -gate-release-factor F makes delayload exit non-zero when the release
// path's p99 exceeds the admit path's p99 by more than a factor of F —
// the CI regression gate for the incremental-release work.
//
// -open-rates r1,r2,... appends an open-loop arrival sweep to the run
// (see openloop.go): each rate point fixes a Poisson or fixed-spacing
// (-arrival) schedule up front and measures latency from the SCHEDULED
// send time, so overload cannot hide behind coordinated omission. The
// sweep lands under "open_loop" in the report, and -open-csv also writes
// it as CSV. -batch-compare N appends a batched-vs-sequential comparison
// ("batch_bench"): one batch-of-N envelope against N single admissions,
// with the engine's own counters proving each envelope committed exactly
// one snapshot; -gate-batch F fails the run when the batch p50 is not at
// least F times better (the median is gated, not the p99: a single-ms
// envelope's p99 is dominated by scheduler and GC noise).
//
// -shards runs the shard-scaling benchmark instead: for each listed shard
// count it starts a fresh in-process daemon over a -blocks disjoint-block
// fabric (topo.DisjointBlocks) whose engine is partitioned into that many
// shards, pins every worker's workload inside one block (so operations
// stay component-local and shard-local), repeats the same closed-loop
// churn, and writes all runs to one report under a top-level "runs" key —
// committed per PR as BENCH_shards.json. -gate-scaling F fails the run
// when throughput at 4 shards (or the largest count) is less than F times
// the 1-shard throughput — the CI gate proving admission throughput
// scales with shard count on disjoint workloads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	stdnet "net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.target, "target", "", "base URL of a running delayd (empty: start one in-process)")
	flag.StringVar(&cfg.servers, "servers", "", "comma-separated fabric server names in path order (required with -target)")
	flag.IntVar(&cfg.self, "self", 8, "tandem size of the in-process daemon (without -target)")
	flag.StringVar(&cfg.analyzer, "analyzer", "integrated", "in-process daemon's analysis: integrated or decomposed")
	flag.StringVar(&cfg.network, "network", service.DefaultNetworkID, "tenant network the /v2 operations are scoped to")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement window")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "closed-loop workers")
	flag.StringVar(&cfg.mix, "mix", "6:3:1", "admit:release:batch operation weights")
	flag.Float64Var(&cfg.rate, "rate", 0, "aggregate operations per second (0 = unthrottled)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.Float64Var(&cfg.rho, "rho", 0.002, "token rate of generated connections")
	flag.Float64Var(&cfg.deadline, "deadline", 100, "deadline of generated connections")
	flag.StringVar(&cfg.out, "out", "BENCH_service.json", "report path (empty: stdout only)")
	flag.Float64Var(&cfg.gateReleaseFactor, "gate-release-factor", 0,
		"fail when release p99 > admit p99 x this factor (0 disables the gate)")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated shard counts: run the shard-scaling sweep instead of a single load run")
	flag.IntVar(&cfg.blocks, "blocks", 8, "disjoint fabric blocks in the sweep fabric (with -shards)")
	flag.IntVar(&cfg.blockSwitches, "block-switches", 3, "tandem switches per block (with -shards)")
	flag.IntVar(&cfg.prefill, "prefill", 0, "connections admitted per block before the timed window (with -shards)")
	flag.Float64Var(&cfg.gateScaling, "gate-scaling", 0,
		"fail when throughput at 4 (or max) shards < 1-shard throughput x this factor (0 disables the gate)")
	flag.StringVar(&cfg.openRates, "open-rates", "",
		"comma-separated target rates (ops/sec): run an open-loop arrival sweep after the closed-loop window")
	flag.StringVar(&cfg.arrival, "arrival", "poisson", "open-loop arrival process: poisson or fixed")
	flag.DurationVar(&cfg.openDuration, "open-duration", 0, "open-loop window per rate point (0: use -duration)")
	flag.StringVar(&cfg.openCSV, "open-csv", "", "also write the open-loop sweep as CSV to this path")
	flag.IntVar(&cfg.batchCompare, "batch-compare", 0,
		"batch size N: benchmark one batch-of-N envelope against N sequential admissions (0 disables)")
	flag.IntVar(&cfg.batchTrials, "batch-trials", 20, "trials per arm of the batch comparison")
	flag.Float64Var(&cfg.gateBatch, "gate-batch", 0,
		"fail when sequential p50 / batch p50 < this factor (0 disables the gate)")
	flag.Parse()

	if cfg.shards != "" {
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
		})
		if !outSet {
			cfg.out = "BENCH_shards.json"
		}
		if err := runShardSweep(&cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "delayload:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(&cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "delayload:", err)
		os.Exit(1)
	}
}

type config struct {
	target, servers   string
	self              int
	analyzer          string
	network           string
	duration          time.Duration
	concurrency       int
	mix               string
	rate              float64
	seed              int64
	rho, deadline     float64
	out               string
	gateReleaseFactor float64

	// Shard-scaling sweep (-shards).
	shards        string
	blocks        int
	blockSwitches int
	prefill       int
	gateScaling   float64

	// Open-loop sweep (-open-rates) and batch comparison (-batch-compare).
	openRates    string
	arrival      string
	openDuration time.Duration
	openCSV      string
	batchCompare int
	batchTrials  int
	gateBatch    float64
}

// apiPrefix is the network-scoped /v2 path prefix operations run under.
func apiPrefix(network string) string { return "/v2/networks/" + network }

// opStats is the per-class section of the report.
type opStats struct {
	Count      int     `json:"count"`
	Errors     int     `json:"errors"`
	Rejected   int     `json:"rejected,omitempty"` // admission tests that said no (not errors)
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	Throughput float64 `json:"ops_per_sec"`
}

// report is the BENCH_service.json schema.
type report struct {
	Target      string             `json:"target"`
	Network     string             `json:"network,omitempty"`
	Duration    float64            `json:"duration_seconds"`
	Concurrency int                `json:"concurrency"`
	Mix         string             `json:"mix"`
	Rate        float64            `json:"rate_ops_per_sec"` // 0: unthrottled
	Seed        int64              `json:"seed"`
	TotalOps    int                `json:"total_ops"`
	Throughput  float64            `json:"ops_per_sec"`
	Ops         map[string]opStats `json:"ops"`
	// EngineStats is the daemon's network-scoped stats document after the run.
	EngineStats json.RawMessage `json:"engine_stats,omitempty"`
	// OpenLoop is the -open-rates arrival sweep (latency from scheduled
	// send time); BatchBench is the -batch-compare result.
	OpenLoop   *openLoopReport   `json:"open_loop,omitempty"`
	BatchBench *batchBenchReport `json:"batch_bench,omitempty"`
}

// shardRun is one sweep measurement in the BENCH_shards.json report.
type shardRun struct {
	Shards            int                `json:"shards"`
	Duration          float64            `json:"duration_seconds"`
	TotalOps          int                `json:"total_ops"`
	Throughput        float64            `json:"ops_per_sec"`
	CrossShardCommits uint64             `json:"cross_shard_commits"`
	CommitConflicts   uint64             `json:"commit_conflicts"`
	Ops               map[string]opStats `json:"ops"`
}

// shardReport is the BENCH_shards.json schema. The top-level "runs" key is
// what benchjson keys its scaling diff mode on.
type shardReport struct {
	Blocks        int        `json:"blocks"`
	BlockSwitches int        `json:"block_switches"`
	Prefill       int        `json:"prefill,omitempty"`
	Duration      float64    `json:"duration_seconds"`
	Concurrency   int        `json:"concurrency"`
	Mix           string     `json:"mix"`
	Seed          int64      `json:"seed"`
	Runs          []shardRun `json:"runs"`
	ScalingFrom   int        `json:"scaling_from_shards"`
	ScalingTo     int        `json:"scaling_to_shards"`
	ScalingFactor float64    `json:"scaling_factor"`
}

// recorder accumulates one operation class's latencies inside a worker.
type recorder struct {
	latMs    []float64
	errors   int
	rejected int
}

func (r *recorder) observe(d time.Duration) {
	r.latMs = append(r.latMs, float64(d.Microseconds())/1000)
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func parseMix(s string) (admit, release, batch int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("mix %q: want admit:release:batch", s)
	}
	w := make([]int, 3)
	for i, p := range parts {
		w[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w[i] < 0 {
			return 0, 0, 0, fmt.Errorf("mix %q: weights must be non-negative integers", s)
		}
	}
	if w[0]+w[1]+w[2] == 0 {
		return 0, 0, 0, fmt.Errorf("mix %q: all weights are zero", s)
	}
	return w[0], w[1], w[2], nil
}

// pickAnalyzer resolves the -analyzer flag for the in-process daemon.
func pickAnalyzer(name string) (analysis.Analyzer, error) {
	switch name {
	case "", "integrated":
		return analysis.Integrated{}, nil
	case "decomposed":
		return analysis.Decomposed{}, nil
	default:
		return nil, fmt.Errorf("analyzer %q: want integrated or decomposed", name)
	}
}

// selfServe starts an in-process delayd over an n-server tandem fabric on
// a loopback listener and returns its base URL, the fabric server names,
// and a shutdown func.
func selfServe(n int, analyzerName string) (base string, names []string, shutdown func(), err error) {
	analyzer, err := pickAnalyzer(analyzerName)
	if err != nil {
		return "", nil, nil, err
	}
	servers := make([]server.Server, n)
	names = make([]string, n)
	for i := range servers {
		names[i] = fmt.Sprintf("s%d", i)
		servers[i] = server.Server{Name: names[i], Capacity: 1, Discipline: server.FIFO}
	}
	state, err := service.NewState(servers, analyzer)
	if err != nil {
		return "", nil, nil, err
	}
	if err := state.WarmBaseline(); err != nil {
		return "", nil, nil, err
	}
	api, err := service.NewServer(service.Config{
		State:  state,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: api}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), names, shutdown, nil
}

// selfServeBlocks starts an in-process delayd over a disjoint-block fabric
// whose engine is partitioned into the given shard count, and returns the
// per-block server name groups so the sweep can pin each worker's workload
// inside one block (component-local, hence shard-local, operations).
func selfServeBlocks(blocks, switches, shards int) (base string, blockNames [][]string, shutdown func(), err error) {
	net, err := topo.DisjointBlocks(blocks, switches, 0.5)
	if err != nil {
		return "", nil, nil, err
	}
	state, err := service.NewStateShards(net.Servers, analysis.Integrated{}, shards)
	if err != nil {
		return "", nil, nil, err
	}
	if err := state.WarmBaseline(); err != nil {
		return "", nil, nil, err
	}
	api, err := service.NewServer(service.Config{
		State:  state,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: api}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	blockNames = make([][]string, blocks)
	for b := 0; b < blocks; b++ {
		group := make([]string, switches)
		for j := 0; j < switches; j++ {
			group[j] = net.Servers[b*switches+j].Name
		}
		blockNames[b] = group
	}
	return "http://" + ln.Addr().String(), blockNames, shutdown, nil
}

// worker is one closed loop: it owns a pool of the connections it has
// admitted (so its releases never race another worker's) and one recorder
// per operation class.
type worker struct {
	id      int
	base    string
	prefix  string // network-scoped /v2 path prefix
	client  *http.Client
	rng     *rand.Rand
	names   []string // fabric servers in path order
	rho     float64
	deadl   float64
	seq     int
	pool    []string
	rec     map[string]*recorder
	tick    <-chan time.Time // nil: unthrottled
	wAdmit  int
	wRel    int
	wBatch  int
	errLast error
}

func (w *worker) recordFor(class string) *recorder {
	r, ok := w.rec[class]
	if !ok {
		r = &recorder{}
		w.rec[class] = r
	}
	return r
}

// connSpec generates one candidate on a random contiguous sub-path.
func (w *worker) connSpec() netspec.ConnectionSpec {
	w.seq++
	hops := 2
	if len(w.names) < 2 {
		hops = len(w.names)
	} else if len(w.names) > 2 && w.rng.Intn(2) == 0 {
		hops = 3
		if hops > len(w.names) {
			hops = len(w.names)
		}
	}
	start := w.rng.Intn(len(w.names) - hops + 1)
	path := make([]json.RawMessage, hops)
	for i, name := range w.names[start : start+hops] {
		raw, _ := json.Marshal(name)
		path[i] = raw
	}
	return netspec.ConnectionSpec{
		Name:       fmt.Sprintf("ld%dn%d", w.id, w.seq),
		Sigma:      1,
		Rho:        w.rho,
		AccessRate: 1,
		Path:       path,
		Deadline:   w.deadl,
	}
}

func (w *worker) post(path string, body any) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

func (w *worker) doAdmit() {
	rec := w.recordFor("admit")
	spec := w.connSpec()
	start := time.Now()
	resp, data, err := w.post(w.prefix+"/connections", service.AdmitRequest{Connection: spec})
	elapsed := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		rec.errors++
		w.errLast = fmt.Errorf("admit: %v (status %v)", err, respStatus(resp))
		return
	}
	rec.observe(elapsed)
	var ar service.AdmitResponse
	if json.Unmarshal(data, &ar) == nil && ar.Admitted {
		w.pool = append(w.pool, spec.Name)
	} else {
		rec.rejected++
	}
}

func (w *worker) doRelease() {
	if len(w.pool) == 0 {
		w.doAdmit()
		return
	}
	rec := w.recordFor("release")
	i := w.rng.Intn(len(w.pool))
	name := w.pool[i]
	w.pool = append(w.pool[:i], w.pool[i+1:]...)
	start := time.Now()
	req, err := http.NewRequest(http.MethodDelete, w.base+w.prefix+"/connections/"+name, nil)
	if err != nil {
		rec.errors++
		return
	}
	resp, err := w.client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		rec.errors++
		w.errLast = fmt.Errorf("release: %v", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.errors++
		w.errLast = fmt.Errorf("release: status %d", resp.StatusCode)
		return
	}
	rec.observe(elapsed)
}

func (w *worker) doBatch() {
	rec := w.recordFor("batch")
	specA, specB := w.connSpec(), w.connSpec()
	ops := []service.BatchOp{
		{Op: "admit", Connection: &specA},
		{Op: "admit", Connection: &specB},
	}
	releasing := ""
	if len(w.pool) > 0 {
		i := w.rng.Intn(len(w.pool))
		releasing = w.pool[i]
		w.pool = append(w.pool[:i], w.pool[i+1:]...)
		ops = append(ops, service.BatchOp{Op: "release", Name: releasing})
	}
	start := time.Now()
	resp, data, err := w.post(w.prefix+"/batch", service.BatchRequest{Operations: ops})
	elapsed := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		rec.errors++
		w.errLast = fmt.Errorf("batch: %v (status %v)", err, respStatus(resp))
		return
	}
	rec.observe(elapsed)
	var br service.BatchResponse
	if json.Unmarshal(data, &br) != nil {
		rec.errors++
		return
	}
	for _, res := range br.Results {
		if res.Op == "admit" && res.Status == service.BatchStatusAdmitted {
			w.pool = append(w.pool, ops[res.Index].Connection.Name)
		}
	}
}

func respStatus(resp *http.Response) any {
	if resp == nil {
		return "none"
	}
	return resp.StatusCode
}

func (w *worker) loop(ctx context.Context) {
	total := w.wAdmit + w.wRel + w.wBatch
	for ctx.Err() == nil {
		if w.tick != nil {
			select {
			case <-w.tick:
			case <-ctx.Done():
				return
			}
		}
		switch n := w.rng.Intn(total); {
		case n < w.wAdmit:
			w.doAdmit()
		case n < w.wAdmit+w.wRel:
			w.doRelease()
		default:
			w.doBatch()
		}
	}
}

// measure runs the closed-loop workload against base for cfg.duration and
// returns the merged percentile report. namesFor assigns each worker the
// fabric server names (in path order) its generated connections run over —
// the sweep uses it to pin workers inside disjoint blocks. poolFor (may be
// nil) seeds each worker's release pool with already-admitted connections.
func measure(cfg *config, base string, namesFor, poolFor func(workerID int) []string) (*report, error) {
	wAdmit, wRel, wBatch, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	if cfg.concurrency < 1 {
		return nil, fmt.Errorf("concurrency must be at least 1")
	}
	if cfg.duration <= 0 {
		return nil, fmt.Errorf("duration must be positive")
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if cfg.rate > 0 {
		ticker = time.NewTicker(time.Duration(float64(time.Second) / cfg.rate))
		defer ticker.Stop()
		tick = ticker.C
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	workers := make([]*worker, cfg.concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		workers[i] = &worker{
			id:     i,
			base:   base,
			prefix: apiPrefix(cfg.network),
			client: &http.Client{Timeout: 30 * time.Second},
			rng:    rand.New(rand.NewSource(cfg.seed + int64(i)*7919)),
			names:  namesFor(i),
			rho:    cfg.rho,
			deadl:  cfg.deadline,
			rec:    make(map[string]*recorder),
			tick:   tick,
			wAdmit: wAdmit, wRel: wRel, wBatch: wBatch,
		}
		if poolFor != nil {
			workers[i].pool = append(workers[i].pool, poolFor(i)...)
		}
		wg.Add(1)
		go func(w *worker) { defer wg.Done(); w.loop(ctx) }(workers[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		Target:      base,
		Network:     cfg.network,
		Duration:    elapsed.Seconds(),
		Concurrency: cfg.concurrency,
		Mix:         cfg.mix,
		Rate:        cfg.rate,
		Seed:        cfg.seed,
		Ops:         make(map[string]opStats),
	}
	merged := make(map[string]*recorder)
	for _, w := range workers {
		for class, r := range w.rec {
			m, ok := merged[class]
			if !ok {
				m = &recorder{}
				merged[class] = m
			}
			m.latMs = append(m.latMs, r.latMs...)
			m.errors += r.errors
			m.rejected += r.rejected
		}
		if w.errLast != nil {
			fmt.Fprintf(os.Stderr, "delayload: worker %d last error: %v\n", w.id, w.errLast)
		}
	}
	for class, r := range merged {
		sort.Float64s(r.latMs)
		sum := 0.0
		for _, v := range r.latMs {
			sum += v
		}
		st := opStats{
			Count:    len(r.latMs),
			Errors:   r.errors,
			Rejected: r.rejected,
			P50Ms:    percentile(r.latMs, 0.50),
			P90Ms:    percentile(r.latMs, 0.90),
			P99Ms:    percentile(r.latMs, 0.99),
		}
		if st.Count > 0 {
			st.MeanMs = sum / float64(st.Count)
			st.MaxMs = r.latMs[st.Count-1]
			st.Throughput = float64(st.Count) / elapsed.Seconds()
		}
		rep.Ops[class] = st
		rep.TotalOps += st.Count
	}
	rep.Throughput = float64(rep.TotalOps) / elapsed.Seconds()

	// Attach the daemon's own counters so the report records how much of
	// the churn ran incrementally (and, sharded, how it spread).
	if resp, err := http.Get(base + apiPrefix(cfg.network) + "/stats"); err == nil {
		if data, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
			rep.EngineStats = json.RawMessage(data)
		}
		resp.Body.Close()
	}
	return rep, nil
}

func run(cfg *config, out io.Writer) error {
	if cfg.network == "" {
		cfg.network = service.DefaultNetworkID
	}
	base := cfg.target
	var names []string
	if base == "" {
		if cfg.self < 1 {
			return fmt.Errorf("-self must be at least 1 without -target")
		}
		var shutdown func()
		var err error
		base, names, shutdown, err = selfServe(cfg.self, cfg.analyzer)
		if err != nil {
			return err
		}
		defer shutdown()
	} else {
		for _, n := range strings.Split(cfg.servers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("-target requires -servers with the fabric server names in path order")
		}
	}

	// The batch comparison runs first: in self-serve mode it spins up its
	// own clean daemon, and running it before the closed-loop and open-loop
	// phases keeps their daemon's standing state and GC heap out of the
	// ~1 ms-scale envelope samples the batch gate judges.
	var batchBench *batchBenchReport
	if cfg.batchCompare > 0 {
		bb, err := runBatchCompare(cfg, names, out)
		if err != nil {
			return err
		}
		batchBench = bb
	}
	rep, err := measure(cfg, base, func(int) []string { return names }, nil)
	if err != nil {
		return err
	}
	rep.BatchBench = batchBench
	if cfg.openRates != "" {
		rep.OpenLoop, err = runOpenLoopSweep(cfg, names, out)
		if err != nil {
			return err
		}
	}

	classes := make([]string, 0, len(rep.Ops))
	for class := range rep.Ops {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	fmt.Fprintf(out, "delayload: %d ops in %.1fs (%.0f ops/s) against %s\n",
		rep.TotalOps, rep.Duration, rep.Throughput, rep.Target)
	fmt.Fprintf(out, "%-8s %8s %7s %9s %9s %9s %9s\n", "op", "count", "errors", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, class := range classes {
		st := rep.Ops[class]
		fmt.Fprintf(out, "%-8s %8d %7d %9.3f %9.3f %9.3f %9.3f\n",
			class, st.Count, st.Errors, st.P50Ms, st.P90Ms, st.P99Ms, st.MaxMs)
	}

	if cfg.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", cfg.out)
	}

	var failures []error
	for class, st := range rep.Ops {
		if st.Errors > 0 {
			failures = append(failures, fmt.Errorf("%d %s operations failed", st.Errors, class))
		}
	}
	if cfg.gateReleaseFactor > 0 {
		admit, release := rep.Ops["admit"], rep.Ops["release"]
		switch {
		case admit.Count == 0 || release.Count == 0:
			failures = append(failures, fmt.Errorf("release gate needs both admit and release samples (admit %d, release %d)",
				admit.Count, release.Count))
		case release.P99Ms > admit.P99Ms*cfg.gateReleaseFactor:
			failures = append(failures, fmt.Errorf("release p99 %.3fms exceeds admit p99 %.3fms x %.1f",
				release.P99Ms, admit.P99Ms, cfg.gateReleaseFactor))
		default:
			fmt.Fprintf(out, "release gate ok: release p99 %.3fms <= admit p99 %.3fms x %.1f\n",
				release.P99Ms, admit.P99Ms, cfg.gateReleaseFactor)
		}
	}
	if rep.OpenLoop != nil {
		for _, pt := range rep.OpenLoop.Points {
			if pt.Errors > 0 {
				failures = append(failures, fmt.Errorf("%d open-loop operations failed at rate %g", pt.Errors, pt.TargetRate))
			}
		}
	}
	if bb := rep.BatchBench; bb != nil {
		// The single-commit invariant is not an opt-in gate: an envelope
		// that committed more than one snapshot per shard means the write
		// path regressed to per-op commits. Every write is an envelope (the
		// sequential arm's singles are envelopes of one), and one that
		// leaves the set untouched commits nothing, so the mean may sit
		// below 1 but never above it.
		if bb.CommitsPerEnvelope > 1 {
			failures = append(failures, fmt.Errorf("envelopes averaged %.2f commits each (want at most 1: %d commits / %d envelopes)",
				bb.CommitsPerEnvelope, bb.Commits, bb.Envelopes))
		}
		if cfg.gateBatch > 0 {
			// Gate on the median ratio: a single ~1 ms batch envelope's p99
			// is one unlucky scheduler or GC hiccup away from a 2-3x
			// outlier, while the p50 of repeated trials is reproducible.
			if bb.SpeedupP50 < cfg.gateBatch {
				failures = append(failures, fmt.Errorf("batch gate: batch-of-%d p50 only %.2fx faster than sequential (need %.1fx; p99 ratio %.2fx)",
					bb.BatchSize, bb.SpeedupP50, cfg.gateBatch, bb.Speedup))
			} else {
				fmt.Fprintf(out, "batch gate ok: %.2fx >= %.1fx (p50)\n", bb.SpeedupP50, cfg.gateBatch)
			}
		}
	}
	return errors.Join(failures...)
}

// parseShardList parses the -shards value into ascending-ordered counts.
func parseShardList(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("shards %q: counts must be positive integers", s)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("shards %q: no counts", s)
	}
	sort.Ints(counts)
	return counts, nil
}

// prefillBlocks admits cfg.prefill connections per block before the timed
// window so the engines start with a realistic standing admitted set, and
// hands the admitted names out as the workers' initial release pools (each
// worker gets prefilled connections from the block it is pinned to).
func prefillBlocks(cfg *config, base string, blockNames [][]string) ([][]string, error) {
	pools := make([][]string, cfg.concurrency)
	if cfg.prefill <= 0 {
		return pools, nil
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for b, names := range blockNames {
		// Workers pinned to this block (i % blocks == b) share its prefill.
		var owners []int
		for i := 0; i < cfg.concurrency; i++ {
			if i%len(blockNames) == b {
				owners = append(owners, i)
			}
		}
		for j := 0; j < cfg.prefill; j++ {
			hops := 2
			if len(names) < 2 {
				hops = len(names)
			}
			start := j % (len(names) - hops + 1)
			path := make([]json.RawMessage, hops)
			for k, name := range names[start : start+hops] {
				raw, _ := json.Marshal(name)
				path[k] = raw
			}
			spec := netspec.ConnectionSpec{
				Name:       fmt.Sprintf("pf%dx%d", b, j),
				Sigma:      1,
				Rho:        cfg.rho,
				AccessRate: 1,
				Path:       path,
				Deadline:   cfg.deadline,
			}
			raw, _ := json.Marshal(service.AdmitRequest{Connection: spec})
			resp, err := client.Post(base+apiPrefix(cfg.network)+"/connections", "application/json", bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("admitting %s: status %d: %s", spec.Name, resp.StatusCode, data)
			}
			var ar service.AdmitResponse
			if json.Unmarshal(data, &ar) != nil || !ar.Admitted {
				// The fabric is full at this rho; a partial prefill still
				// serves its purpose (a standing admitted set).
				break
			}
			if len(owners) > 0 {
				owner := owners[j%len(owners)]
				pools[owner] = append(pools[owner], spec.Name)
			}
		}
	}
	return pools, nil
}

// runShardSweep measures the same closed-loop churn once per shard count
// over a disjoint-block fabric, with every worker pinned inside one block
// so operations stay shard-local, and writes all runs to one report.
func runShardSweep(cfg *config, out io.Writer) error {
	counts, err := parseShardList(cfg.shards)
	if err != nil {
		return err
	}
	if cfg.target != "" {
		return fmt.Errorf("-shards starts its own in-process daemons and cannot be combined with -target")
	}
	if cfg.network == "" {
		cfg.network = service.DefaultNetworkID
	}
	if cfg.network != service.DefaultNetworkID {
		return fmt.Errorf("-shards drives the in-process daemon's default network, not -network %q", cfg.network)
	}
	if cfg.blocks < counts[len(counts)-1] {
		return fmt.Errorf("-blocks %d < max shard count %d: shards beyond the block count would idle",
			cfg.blocks, counts[len(counts)-1])
	}

	sweep := shardReport{
		Blocks:        cfg.blocks,
		BlockSwitches: cfg.blockSwitches,
		Prefill:       cfg.prefill,
		Duration:      cfg.duration.Seconds(),
		Concurrency:   cfg.concurrency,
		Mix:           cfg.mix,
		Seed:          cfg.seed,
	}
	fmt.Fprintf(out, "delayload: shard sweep over %d disjoint blocks x %d switches, %d workers, %s each\n",
		cfg.blocks, cfg.blockSwitches, cfg.concurrency, cfg.duration)
	for _, shards := range counts {
		base, blockNames, shutdown, err := selfServeBlocks(cfg.blocks, cfg.blockSwitches, shards)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		pools, err := prefillBlocks(cfg, base, blockNames)
		if err != nil {
			shutdown()
			return fmt.Errorf("shards=%d: prefill: %w", shards, err)
		}
		rep, err := measure(cfg, base,
			func(i int) []string { return blockNames[i%len(blockNames)] },
			func(i int) []string { return pools[i] })
		shutdown()
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		run := shardRun{
			Shards:     shards,
			Duration:   rep.Duration,
			TotalOps:   rep.TotalOps,
			Throughput: rep.Throughput,
			Ops:        rep.Ops,
		}
		var stats service.StatsResponse
		if len(rep.EngineStats) > 0 && json.Unmarshal(rep.EngineStats, &stats) == nil {
			run.CrossShardCommits = stats.CrossShardCommits
			run.CommitConflicts = stats.CommitConflicts
		}
		sweep.Runs = append(sweep.Runs, run)
		fmt.Fprintf(out, "shards=%d: %d ops in %.1fs (%.0f ops/s), %d cross-shard commits, %d conflicts\n",
			shards, run.TotalOps, run.Duration, run.Throughput, run.CrossShardCommits, run.CommitConflicts)
		for class, st := range run.Ops {
			if st.Errors > 0 {
				return fmt.Errorf("shards=%d: %d %s operations failed", shards, st.Errors, class)
			}
		}
	}

	// The scaling factor compares the 1-shard (or smallest measured) run
	// against 4 shards when measured, else the largest count.
	from, to := sweep.Runs[0], sweep.Runs[len(sweep.Runs)-1]
	for _, r := range sweep.Runs {
		if r.Shards == 4 {
			to = r
		}
	}
	sweep.ScalingFrom, sweep.ScalingTo = from.Shards, to.Shards
	if from.Throughput > 0 {
		sweep.ScalingFactor = to.Throughput / from.Throughput
	}
	fmt.Fprintf(out, "scaling: %.2fx ops/s going from %d to %d shards\n",
		sweep.ScalingFactor, sweep.ScalingFrom, sweep.ScalingTo)

	if cfg.out != "" {
		data, err := json.MarshalIndent(sweep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", cfg.out)
	}

	if cfg.gateScaling > 0 {
		if sweep.ScalingFrom == sweep.ScalingTo {
			return fmt.Errorf("scaling gate needs at least two distinct shard counts")
		}
		if sweep.ScalingFactor < cfg.gateScaling {
			return fmt.Errorf("scaling gate: %.2fx (%d -> %d shards) below required %.1fx",
				sweep.ScalingFactor, sweep.ScalingFrom, sweep.ScalingTo, cfg.gateScaling)
		}
		fmt.Fprintf(out, "scaling gate ok: %.2fx >= %.1fx\n", sweep.ScalingFactor, cfg.gateScaling)
	}
	return nil
}
