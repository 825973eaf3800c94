// Command delayload is an operator's load generator for the delayd
// admission API. It drives a live daemon (or an in-process one it starts
// itself) with a configurable mix of admit, release, and mixed-batch
// operations and prints per-operation latency percentiles and throughput.
// It judges nothing but failures: any transport error or non-200 reply
// makes it exit non-zero. Performance claims about this repository are
// made with bench/ (see bench/README.md), not with this tool.
//
// Usage:
//
//	delayload [-target http://host:8080 -servers s0,s1,...] | [-self 8]
//	          [-network default] [-duration 10s] [-concurrency 4] [-mix 6:3:1]
//	          [-rate 0] [-seed 1] [-rho 0.002] [-deadline 100]
//	          [-open-rates 100,200 [-arrival poisson] [-open-duration 3s]
//	           [-open-csv sweep.csv]] [-out report.json]
//
// With -target, delayload aims at a running delayd and -servers must name
// the fabric servers in path order (generated connections take random
// contiguous sub-paths). Without -target, delayload starts an in-process
// delayd over a -self N-server tandem on a loopback listener and drives
// that. Operations go through the network-scoped /v2 API against the
// -network tenant.
//
// Each worker runs a closed loop: it issues one operation, waits for the
// response, records the latency under the operation's class, and issues
// the next. -rate caps the aggregate operation rate (0 = unthrottled).
// The -mix a:r:b weights choose between single admissions (POST
// .../connections), releases of previously admitted connections (DELETE
// .../connections/{name}), and small mixed batches (POST .../batch).
//
// -open-rates r1,r2,... appends an open-loop arrival sweep to the run
// (see openloop.go): each rate point fixes a Poisson or fixed-spacing
// (-arrival) schedule up front and measures latency from the SCHEDULED
// send time, so overload cannot hide behind coordinated omission. -open-csv
// also writes the sweep as CSV. -out writes the whole run (closed loop,
// the daemon's stats document, the sweep under "open_loop") as JSON; by
// default nothing is written and the summary goes to stdout only.
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
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag package has already printed the error and usage
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "delayload:", err)
		os.Exit(1)
	}
}

// parseFlags builds the run configuration from the command line; parse
// errors and usage go to errOut.
func parseFlags(args []string, errOut io.Writer) (*config, error) {
	var cfg config
	fs := flag.NewFlagSet("delayload", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.target, "target", "", "base URL of a running delayd (empty: start one in-process)")
	fs.StringVar(&cfg.servers, "servers", "", "comma-separated fabric server names in path order (required with -target)")
	fs.IntVar(&cfg.self, "self", 8, "tandem size of the in-process daemon (without -target)")
	fs.StringVar(&cfg.analyzer, "analyzer", "integrated", "in-process daemon's analysis: integrated or decomposed")
	fs.StringVar(&cfg.network, "network", service.DefaultNetworkID, "tenant network the /v2 operations are scoped to")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement window")
	fs.IntVar(&cfg.concurrency, "concurrency", 4, "closed-loop workers")
	fs.StringVar(&cfg.mix, "mix", "6:3:1", "admit:release:batch operation weights")
	fs.Float64Var(&cfg.rate, "rate", 0, "aggregate operations per second (0 = unthrottled)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	fs.Float64Var(&cfg.rho, "rho", 0.002, "token rate of generated connections")
	fs.Float64Var(&cfg.deadline, "deadline", 100, "deadline of generated connections")
	fs.StringVar(&cfg.out, "out", "", "also write the run as a JSON report to this path")
	fs.StringVar(&cfg.openRates, "open-rates", "",
		"comma-separated target rates (ops/sec): run an open-loop arrival sweep after the closed-loop window")
	fs.StringVar(&cfg.arrival, "arrival", "poisson", "open-loop arrival process: poisson or fixed")
	fs.DurationVar(&cfg.openDuration, "open-duration", 0, "open-loop window per rate point (0: use -duration)")
	fs.StringVar(&cfg.openCSV, "open-csv", "", "also write the open-loop sweep as CSV to this path")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &cfg, nil
}

type config struct {
	target, servers string
	self            int
	analyzer        string
	network         string
	duration        time.Duration
	concurrency     int
	mix             string
	rate            float64
	seed            int64
	rho, deadline   float64
	out             string

	// Open-loop sweep (-open-rates).
	openRates    string
	arrival      string
	openDuration time.Duration
	openCSV      string
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

// report is the -out JSON schema.
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
	// send time).
	OpenLoop *openLoopReport `json:"open_loop,omitempty"`
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
// returns the merged percentile report. names are the fabric server names
// (in path order) the generated connections run over.
func measure(cfg *config, base string, names []string) (*report, error) {
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
			names:  names,
			rho:    cfg.rho,
			deadl:  cfg.deadline,
			rec:    make(map[string]*recorder),
			tick:   tick,
			wAdmit: wAdmit, wRel: wRel, wBatch: wBatch,
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
	// the churn ran incrementally.
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

	rep, err := measure(cfg, base, names)
	if err != nil {
		return err
	}
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
	for _, class := range classes {
		if st := rep.Ops[class]; st.Errors > 0 {
			failures = append(failures, fmt.Errorf("%d %s operations failed", st.Errors, class))
		}
	}
	if rep.OpenLoop != nil {
		for _, pt := range rep.OpenLoop.Points {
			if pt.Errors > 0 {
				failures = append(failures, fmt.Errorf("%d open-loop operations failed at rate %g", pt.Errors, pt.TargetRate))
			}
		}
	}
	return errors.Join(failures...)
}
