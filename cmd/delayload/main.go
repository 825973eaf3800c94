// Command delayload is an operator's load generator for the delayd
// admission API. It drives a live daemon (or an in-process one it starts
// itself) with a mix of admit, release, and mixed-batch operations and
// prints per-operation latency percentiles and throughput. It judges
// nothing but failures: any transport error or non-200 reply makes it exit
// non-zero; an admission the daemon rejects is a rejection, not a failure.
// Performance claims about this repository are made with bench/ (see
// bench/README.md), not with this tool.
//
// Usage:
//
//	delayload [-target http://host:8080 -servers s0,s1,...] | [-self 8 [-analyzer integrated]]
//	          [-network default] [-duration 10s] [-concurrency 4] [-mix 6:3:1]
//	          [-seed 1] [-rho 0.002] [-deadline 100] [-open-rates 100,200]
//
// With -target, delayload aims at a running delayd and -servers must name
// the fabric servers in path order (generated connections take random
// contiguous sub-paths). Without -target, delayload starts an in-process
// delayd over a -self N-server tandem on a loopback listener and drives
// that. Operations go through the network-scoped /v2 API against the
// -network tenant.
//
// Each of the -concurrency workers runs a closed loop for -duration: it
// issues one operation, waits for the response, records the latency under
// the operation's class, and issues the next. The -mix a:r:b weights choose
// between single admissions (POST .../connections), releases of previously
// admitted connections (DELETE .../connections/{name}), and small mixed
// batches (POST .../batch).
//
// -open-rates r1,r2,... appends an open-loop sweep (openloop.go): each rate
// point runs for -duration on a Poisson schedule fixed up front and measures
// latency from the SCHEDULED send time, so overload cannot hide behind
// coordinated omission. Both loops send through the same request layer
// (client below). Nothing is written to disk.
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
	if _, err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "delayload:", err)
		os.Exit(1)
	}
}

// parseFlags builds the run configuration from the command line; parse
// errors and usage go to errOut.
func parseFlags(args []string, errOut io.Writer) (*config, error) {
	cfg := config{weights: [3]int{6, 3, 1}}
	fs := flag.NewFlagSet("delayload", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.target, "target", "", "base URL of a running delayd (empty: start one in-process)")
	fs.StringVar(&cfg.servers, "servers", "", "comma-separated fabric server names in path order (required with -target)")
	fs.IntVar(&cfg.self, "self", 8, "tandem size of the in-process daemon (without -target)")
	fs.StringVar(&cfg.analyzer, "analyzer", "integrated",
		"in-process daemon's admission analyzer ("+strings.Join(service.AnalyzerNames(), ", ")+")")
	fs.StringVar(&cfg.network, "network", service.DefaultNetworkID, "tenant network the /v2 operations are scoped to")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "closed-loop window, and the window of every open-loop rate point")
	fs.IntVar(&cfg.concurrency, "concurrency", 4, "closed-loop workers")
	fs.Func("mix", "admit:release:batch operation weights (default 6:3:1)", func(s string) (err error) {
		cfg.weights, err = parseMix(s)
		return err
	})
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	fs.Float64Var(&cfg.rho, "rho", 0.002, "token rate of generated connections")
	fs.Float64Var(&cfg.deadline, "deadline", 100, "deadline of generated connections")
	fs.StringVar(&cfg.openRates, "open-rates", "",
		"comma-separated target rates (ops/sec): run an open-loop sweep after the closed-loop window")
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
	weights         [3]int // -mix
	seed            int64
	rho, deadline   float64
	openRates       string
}

// client is the one request layer both loops send through: one method per
// HTTP operation of the admission API, each answering an error for a
// transport failure or any reply but 200.
type client struct {
	http *http.Client
	base string // daemon URL plus the network-scoped /v2 prefix
}

func newClient(target, network string) *client {
	return &client{http: &http.Client{Timeout: 30 * time.Second}, base: target + "/v2/networks/" + network}
}

// send issues one request with an optional JSON body and returns the reply
// body of a 200.
func (c *client) send(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return data, nil
}

// admit tests and admits one connection and reports the decision.
func (c *client) admit(spec netspec.ConnectionSpec) (bool, error) {
	data, err := c.send(http.MethodPost, "/connections", service.AdmitRequest{Connection: spec})
	if err != nil {
		return false, err
	}
	var ar service.AdmitResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return false, fmt.Errorf("admit: %w", err)
	}
	return ar.Admitted, nil
}

// release removes one admitted connection.
func (c *client) release(name string) error {
	_, err := c.send(http.MethodDelete, "/connections/"+name, nil)
	return err
}

// batch runs one mixed envelope and returns the names it admitted and the
// number of admissions it rejected.
func (c *client) batch(ops []service.BatchOp) (admitted []string, rejected int, err error) {
	data, err := c.send(http.MethodPost, "/batch", service.BatchRequest{Operations: ops})
	if err != nil {
		return nil, 0, err
	}
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, 0, fmt.Errorf("batch: %w", err)
	}
	for _, res := range br.Results {
		if res.Op == "admit" && res.Status == service.BatchStatusAdmitted {
			admitted = append(admitted, ops[res.Index].Connection.Name)
		}
	}
	return admitted, br.Rejected, nil
}

// Operation kinds, in -mix order.
const (
	opAdmit = iota
	opRelease
	opBatch
)

// op is one generated operation. Every op carries an admit candidate: a
// release that finds no admitted connection to remove admits it instead.
type op struct {
	kind         int
	specA, specB netspec.ConnectionSpec
}

// pool holds the admitted names releases draw from; safe for concurrent use.
type pool struct {
	mu    sync.Mutex
	names []string
}

func (p *pool) add(names ...string) {
	p.mu.Lock()
	p.names = append(p.names, names...)
	p.mu.Unlock()
}

func (p *pool) take() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.names) == 0 {
		return "", false
	}
	name := p.names[len(p.names)-1]
	p.names = p.names[:len(p.names)-1]
	return name, true
}

// exec sends o, taking release targets from and returning admissions to p,
// and reports the class it ran as and how many admissions were rejected.
func (c *client) exec(o op, p *pool) (class string, rejected int, err error) {
	switch o.kind {
	case opRelease:
		if name, ok := p.take(); ok {
			return "release", 0, c.release(name)
		}
	case opBatch:
		ops := []service.BatchOp{{Op: "admit", Connection: &o.specA}, {Op: "admit", Connection: &o.specB}}
		if name, ok := p.take(); ok {
			ops = append(ops, service.BatchOp{Op: "release", Name: name})
		}
		admitted, n, err := c.batch(ops)
		p.add(admitted...)
		return "batch", n, err
	}
	ok, err := c.admit(o.specA)
	if ok {
		p.add(o.specA.Name)
	} else if err == nil {
		rejected = 1
	}
	return "admit", rejected, err
}

// generator draws operations by the mix weights and candidates on random
// contiguous sub-paths of the fabric.
type generator struct {
	rng           *rand.Rand
	prefix        string   // connection name prefix, unique per generator
	names         []string // fabric servers in path order
	weights       [3]int
	rho, deadline float64
	seq           int
}

func newGenerator(cfg *config, names []string, seed int64, prefix string) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), prefix: prefix, names: names,
		weights: cfg.weights, rho: cfg.rho, deadline: cfg.deadline}
}

func (g *generator) next() op {
	o := op{kind: opBatch}
	switch n := g.rng.Intn(g.weights[0] + g.weights[1] + g.weights[2]); {
	case n < g.weights[0]:
		o.kind = opAdmit
	case n < g.weights[0]+g.weights[1]:
		o.kind = opRelease
	default:
		o.specB = g.spec()
	}
	o.specA = g.spec()
	return o
}

// spec generates one candidate of two or three hops.
func (g *generator) spec() netspec.ConnectionSpec {
	g.seq++
	hops := min(2, len(g.names))
	if len(g.names) > 2 && g.rng.Intn(2) == 0 {
		hops = 3
	}
	start := g.rng.Intn(len(g.names) - hops + 1)
	path := make([]json.RawMessage, hops)
	for i, name := range g.names[start : start+hops] {
		path[i], _ = json.Marshal(name) // a string always marshals
	}
	return netspec.ConnectionSpec{Name: fmt.Sprintf("%sn%d", g.prefix, g.seq), Sigma: 1, Rho: g.rho,
		AccessRate: 1, Path: path, Deadline: g.deadline}
}

// parseMix reads admit:release:batch weights.
func parseMix(s string) (w [3]int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return w, fmt.Errorf("mix %q: want admit:release:batch", s)
	}
	for i, p := range parts {
		w[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w[i] < 0 {
			return w, fmt.Errorf("mix %q: weights must be non-negative integers", s)
		}
	}
	if w[0]+w[1]+w[2] == 0 {
		return w, fmt.Errorf("mix %q: all weights are zero", s)
	}
	return w, nil
}

// samples is what a loop measured for one operation class (or one open-loop
// rate point): the latencies of the operations that got a 200, the ones that
// failed, and the admissions the daemon rejected.
type samples struct {
	latMs    []float64
	errors   int
	rejected int
	lastErr  error
}

// recorder collects samples per class; safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	classes map[string]*samples
}

func (r *recorder) observe(class string, d time.Duration, rejected int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.classes == nil {
		r.classes = map[string]*samples{}
	}
	s := r.classes[class]
	if s == nil {
		s = &samples{}
		r.classes[class] = s
	}
	if err != nil {
		s.errors++
		s.lastErr = err
		return
	}
	s.latMs = append(s.latMs, float64(d.Microseconds())/1000)
	s.rejected += rejected
}

// stats is the summary of one samples set.
type stats struct {
	count, errors, rejected int
	p50, p90, p99, max      float64
	lastErr                 error
}

func (s *samples) stats() stats {
	sort.Float64s(s.latMs)
	st := stats{count: len(s.latMs), errors: s.errors, rejected: s.rejected, lastErr: s.lastErr,
		p50: percentile(s.latMs, 0.50), p90: percentile(s.latMs, 0.90), p99: percentile(s.latMs, 0.99)}
	if st.count > 0 {
		st.max = s.latMs[st.count-1]
	}
	return st
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// selfServe starts an in-process delayd over an n-server tandem fabric on
// a loopback listener and returns its base URL, the fabric server names,
// and a shutdown func.
func selfServe(n int, analyzerName string) (base string, names []string, shutdown func(), err error) {
	analyzer, err := service.PickAnalyzer(analyzerName)
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

// closedLoop runs cfg.concurrency workers against base for cfg.duration and
// returns the per-class summaries and the window's length.
func closedLoop(cfg *config, base string, names []string) (map[string]stats, time.Duration) {
	c, p, rec := newClient(base, cfg.network), &pool{}, &recorder{}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.concurrency; i++ {
		g := newGenerator(cfg, names, cfg.seed+int64(i)*7919, fmt.Sprintf("ld%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				o := g.next()
				t := time.Now()
				class, rejected, err := c.exec(o, p)
				rec.observe(class, time.Since(t), rejected, err)
			}
		}()
	}
	wg.Wait()
	out := map[string]stats{}
	for class, s := range rec.classes {
		out[class] = s.stats()
	}
	return out, time.Since(start)
}

// results is what a run measured: the closed loop per class, then the
// open-loop sweep per rate point.
type results struct {
	closed map[string]stats
	open   []point
}

// run validates cfg, runs the closed loop and the open-loop sweep, prints
// their summaries to out, and fails when any operation failed.
func run(cfg *config, out io.Writer) (*results, error) {
	if cfg.concurrency < 1 {
		return nil, fmt.Errorf("concurrency must be at least 1")
	}
	if cfg.duration <= 0 {
		return nil, fmt.Errorf("duration must be positive")
	}
	var rates []float64
	var err error
	if cfg.openRates != "" {
		if rates, err = parseRates(cfg.openRates); err != nil {
			return nil, err
		}
	}
	base := cfg.target
	var names []string
	if base == "" {
		if cfg.self < 1 {
			return nil, fmt.Errorf("-self must be at least 1 without -target")
		}
		var shutdown func()
		if base, names, shutdown, err = selfServe(cfg.self, cfg.analyzer); err != nil {
			return nil, err
		}
		defer shutdown()
	} else {
		for _, n := range strings.Split(cfg.servers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-target requires -servers with the fabric server names in path order")
		}
	}

	closed, elapsed := closedLoop(cfg, base, names)
	res := &results{closed: closed}
	classes := make([]string, 0, len(closed))
	total := 0
	for class, st := range closed {
		classes = append(classes, class)
		total += st.count
	}
	sort.Strings(classes)
	fmt.Fprintf(out, "delayload: %d ops in %.1fs (%.0f ops/s) against %s\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds(), base)
	fmt.Fprintf(out, "%-8s %8s %7s %8s %9s %9s %9s %9s\n", "op", "count", "errors", "rejected", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, class := range classes {
		st := closed[class]
		fmt.Fprintf(out, "%-8s %8d %7d %8d %9.3f %9.3f %9.3f %9.3f\n",
			class, st.count, st.errors, st.rejected, st.p50, st.p90, st.p99, st.max)
	}
	if len(rates) > 0 {
		if res.open, err = openLoopSweep(cfg, rates, names, out); err != nil {
			return res, err
		}
	}

	var failures []error
	for _, class := range classes {
		if st := closed[class]; st.errors > 0 {
			failures = append(failures, fmt.Errorf("%d %s operations failed (last: %v)", st.errors, class, st.lastErr))
		}
	}
	for _, pt := range res.open {
		if pt.errors > 0 {
			failures = append(failures, fmt.Errorf("%d open-loop operations failed at rate %g (last: %v)", pt.errors, pt.rate, pt.lastErr))
		}
	}
	return res, errors.Join(failures...)
}
