package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

// The open-loop read workload: independent readers beside a trickle of
// writes on one 16-switch integrated fabric.
const (
	readSwitches = 16
	readPrefill  = 120
	readRho      = 0.002
	readDeadline = 100
	// readRate is the fixed arrival rate. The same mix run closed-loop on
	// the two connections completes about 1,100 requests a second on the
	// reference box (README.md), so the schedule offers well under half
	// of capacity and latency measures service, not a standing queue.
	readRate     = 200.0
	readRequests = 500 // per round
	readWorkers  = 2   // kept-alive connections the schedule is dispatched to
	readHotSpecs = 32
	readPage     = 50
	// readSLO is the latency, from due time, within which a request counts
	// as served on time.
	readSLO = 10 * time.Millisecond
)

// clock is the time source of the open loop, injected so that the due-time
// accounting can be tested without sleeping.
type clock interface {
	Now() time.Duration // since the schedule's origin
	SleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.origin) }

// SleepUntil sleeps to just short of t and yields the rest of the way: a
// timer wake-up on the reference box comes 0.2 ms late at the median and
// milliseconds late at the tail, which would otherwise be charged to every
// request as latency.
func (c wallClock) SleepUntil(t time.Duration) {
	const slack = 500 * time.Microsecond
	if d := t - c.Now() - slack; d > 0 {
		time.Sleep(d)
	}
	for c.Now() < t {
		runtime.Gosched()
	}
}

// openLoop dispatches request i at due[i] to whichever of the workers is
// free first, in order, and never skips or reorders a request: a worker
// that is late for its next request sends it at once. Latency runs from
// the request's due time to its completion, so a stall is charged to
// every request it delayed; exec returns once the answer has arrived and
// hands back the check of it, which runs off the clock. lag is how late the
// generator itself woke for a request it was on time for (0 when the
// request was already overdue).
func openLoop(clk clock, due []time.Duration, workers int, exec func(worker, i int) (verify func() bool)) (lat, lag []time.Duration, ok []bool) {
	n := len(due)
	lat, lag, ok = make([]time.Duration, n), make([]time.Duration, n), make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if clk.Now() < due[i] {
					clk.SleepUntil(due[i])
					lag[i] = clk.Now() - due[i]
				}
				verify := exec(w, i)
				lat[i] = clk.Now() - due[i]
				ok[i] = verify()
			}
		}(w)
	}
	wg.Wait()
	return lat, lag, ok
}

// analyzeBodies marshals n analyze requests over 8-switch paper tandems
// whose load is drawn by pick, so that each body is a distinct network.
func analyzeBodies(n int, pick func(i int) float64) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		net, err := topo.PaperTandem(8, pick(i))
		if err != nil {
			return nil, err
		}
		bodies[i], err = json.Marshal(service.AnalyzeRequest{Analyzer: "integrated", Network: *netspec.ToSpec(net)})
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// readState is what the workers of one round share.
type readState struct {
	mu       sync.Mutex
	pool     []string // own admitted connections, oldest first
	cursor   string   // the listing walk's position ("" = start)
	restarts int      // stale cursors answered 410
}

// issue sends one scheduled request on the worker's connection and
// returns the check of its answer.
func (st *readState) issue(c *client, op *readOp) (verify func() bool) {
	failed := func() bool { return false }
	switch op.class {
	case "test":
		data, err := c.post(apiPrefix+"/connections", service.AdmitRequest{Connection: op.cand, DryRun: true})
		return func() bool {
			var resp service.AdmitResponse
			return err == nil && decode(data, &resp) == nil
		}
	case "list":
		st.mu.Lock()
		cursor := st.cursor
		st.mu.Unlock()
		path := fmt.Sprintf("%s/connections?limit=%d", apiPrefix, readPage)
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		status, data, err := c.call(http.MethodGet, path, nil)
		return func() bool {
			var page service.ListResponse
			switch {
			case err != nil:
				return false
			case status == http.StatusGone: // a write moved the snapshot: restart the walk
			case status != http.StatusOK || decode(data, &page) != nil:
				return false
			}
			st.mu.Lock()
			st.cursor = page.NextCursor
			if status == http.StatusGone {
				st.restarts++
			}
			st.mu.Unlock()
			return true
		}
	case "analyze":
		status, data, err := c.call(http.MethodPost, apiPrefix+"/analyze", op.body)
		return func() bool {
			var resp service.AnalyzeResponse
			return err == nil && status == http.StatusOK && decode(data, &resp) == nil
		}
	}
	// write: alternately admit a fresh connection and release the oldest.
	if op.admit {
		data, err := c.post(apiPrefix+"/connections", service.AdmitRequest{Connection: op.cand})
		return func() bool {
			var resp service.AdmitResponse
			if err != nil || decode(data, &resp) != nil {
				return false
			}
			if resp.Admitted {
				st.mu.Lock()
				st.pool = append(st.pool, op.cand.Name)
				st.mu.Unlock()
			}
			return true
		}
	}
	st.mu.Lock()
	if len(st.pool) == 0 {
		st.mu.Unlock()
		return failed
	}
	name := st.pool[0]
	st.pool = st.pool[1:]
	st.mu.Unlock()
	status, _, err := c.call(http.MethodDelete, apiPrefix+"/connections/"+name, nil)
	return func() bool { return err == nil && status == http.StatusOK }
}

// readRound is one round of serve-read.
func readRound(env *roundEnv) (*roundData, error) {
	rd := newRoundData()
	setupStart := time.Now()
	servers := tandemServers(readSwitches)
	sv, err := newServing(env, servers, analysis.Integrated{}, 1)
	if err != nil {
		return nil, err
	}
	defer sv.d.stop()
	admin := newClient(sv.d.base)
	defer admin.close()

	pre := newConnGen(rand.New(rand.NewSource(env.rngSeed("prefill"))), "pf", servers, readRho, readDeadline)
	pool, err := sv.prefill(admin, pre, env.count(readPrefill))
	if err != nil {
		return nil, err
	}
	if err := sv.warm(); err != nil {
		return nil, err
	}
	n := env.count(readRequests)
	rng := rand.New(rand.NewSource(env.rngSeed("schedule")))
	hot, err := analyzeBodies(readHotSpecs, func(i int) float64 { return 0.3 + 0.01*float64(i) })
	if err != nil {
		return nil, err
	}
	cold, err := analyzeBodies(n/20+4, func(int) float64 { return 0.05 + 0.9*rng.Float64() })
	if err != nil {
		return nil, err
	}
	gen := newConnGen(rng, "r", servers, readRho, readDeadline)
	ops, opHash := readSchedule(rng, gen, n, readRate, hot, cold)
	rd.opHash = opHash
	// Writes alternate admit and release, admit first, so one prefilled
	// connection is enough for the pool never to run dry.
	if len(pool) == 0 {
		return nil, fmt.Errorf("prefill admitted no connection")
	}
	// Warm-up: every hot spec once, so the measured hot requests hit.
	for _, body := range hot {
		if status, _, err := admin.call(http.MethodPost, apiPrefix+"/analyze", body); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warming the analyze cache: status %d: %v", status, err)
		}
	}
	st := &readState{pool: pool}
	if sv.reps != nil {
		return rd, sv.reps.readRound(rd, st, ops, setupStart)
	}
	workers := make([]*client, readWorkers)
	for i := range workers {
		workers[i] = newClient(sv.d.base)
		defer workers[i].close()
		// Open the connection before the schedule starts.
		if err := workers[i].getJSON("/v2/healthz", &struct{}{}); err != nil {
			return nil, err
		}
	}
	rd.setup = time.Since(setupStart)
	before, err := scrape(admin)
	if err != nil {
		return nil, err
	}

	due := make([]time.Duration, n)
	for i := range ops {
		due[i] = ops[i].due
	}
	w := openWindow()
	lat, lag, ok := openLoop(wallClock{origin: w.start}, due, readWorkers, func(worker, i int) func() bool {
		return st.issue(workers[worker], &ops[i])
	})
	rd.attempted = n
	w.close(rd)
	rd.liveHeap()

	onTime := 0
	lagMs := make([]float64, n)
	for i := range ops {
		lagMs[i] = float64(lag[i].Nanoseconds()) / 1e6
		if !ok[i] {
			rd.failed++
			continue
		}
		rd.observe(ops[i].class, lat[i])
		if lat[i] <= readSLO {
			onTime++
		}
	}
	after, err := scrape(admin)
	if err != nil {
		return nil, err
	}
	fileCounts(rd, before, after)
	rd.counts["load.slo_ok_ratio"] = ratio(float64(onTime), float64(n))
	rd.counts["service.list_restarts"] = float64(st.restarts)
	rd.sample("load.sched_lag_p99_ms", percentile(lagMs, 0.99))
	var sent, recv int64
	for _, c := range workers {
		sent += c.sent
		recv += c.recv
	}
	rd.counts["service.req_bytes_per_op"] = ratio(float64(sent), float64(n))
	rd.counts["service.resp_bytes_per_op"] = ratio(float64(recv), float64(n))
	for _, class := range []string{"test", "list", "analyze", "write"} {
		rd.counts["load."+class+"_ops"] = float64(len(rd.lat[class]))
	}
	return rd, checkServing(rd, admin, servers, analysis.Integrated{}, gen.next())
}
