// Open-loop arrival sweep for delayload. The closed loop in main.go
// measures latency under a self-limiting workload: a slow response delays
// the next request, so overload hides itself (coordinated omission). The
// open-loop mode instead fixes the arrival schedule up front — Poisson or
// fixed-spacing at a target rate — dispatches every arrival at its
// scheduled instant regardless of how many requests are still in flight,
// and measures each operation from its SCHEDULED send time to completion.
// Queueing delay the daemon inflicts on a backlogged client shows up in
// the percentiles instead of silently stretching the schedule.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"delaycalc/internal/netspec"
	"delaycalc/internal/service"
)

// openLoopPoint is one rate measurement of the sweep. Latencies are
// measured from the scheduled arrival instant, so a backlog that delays
// dispatch or completion is charged to the operations that suffered it.
type openLoopPoint struct {
	TargetRate   float64 `json:"target_rate_ops_per_sec"`
	Scheduled    int     `json:"scheduled"`
	Completed    int     `json:"completed"`
	Errors       int     `json:"errors"`
	Rejected     int     `json:"rejected,omitempty"`
	AchievedRate float64 `json:"achieved_ops_per_sec"`
	MeanMs       float64 `json:"mean_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// openLoopReport is the "open_loop" section of the -out report.
type openLoopReport struct {
	Arrival  string          `json:"arrival"`
	Duration float64         `json:"duration_seconds"`
	Mix      string          `json:"mix"`
	Points   []openLoopPoint `json:"points"`
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("open-rates %q: rates must be positive numbers", s)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("open-rates %q: no rates", s)
	}
	sort.Float64s(rates)
	return rates, nil
}

// olPlan is one precomputed arrival: its offset into the window and the
// operation it will execute. Specs are generated up front from a single
// RNG so the schedule is deterministic under -seed; release targets are
// resolved at dispatch time from the shared pool (a release planned before
// any admission completed falls back to the admit spec it carries).
type olPlan struct {
	offset time.Duration
	kind   int // 0 admit, 1 release, 2 batch
	specA  netspec.ConnectionSpec
	specB  netspec.ConnectionSpec
}

// olPool is the admitted-name pool shared by all in-flight arrivals.
type olPool struct {
	mu    sync.Mutex
	names []string
}

func (p *olPool) add(name string) {
	p.mu.Lock()
	p.names = append(p.names, name)
	p.mu.Unlock()
}

func (p *olPool) take() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.names) == 0 {
		return "", false
	}
	name := p.names[len(p.names)-1]
	p.names = p.names[:len(p.names)-1]
	return name, true
}

// olSchedule precomputes the arrival plan for one rate point: offsets from
// the window start (exponential inter-arrivals for poisson, 1/rate for
// fixed) and the operation mix, specs included.
func olSchedule(cfg *config, names []string, rate float64, dur time.Duration) ([]olPlan, error) {
	wAdmit, wRel, wBatch, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed + int64(rate*1000)))
	gen := &worker{rng: rng, names: names, rho: cfg.rho, deadl: cfg.deadline}
	var plans []olPlan
	t := 0.0
	for i := 0; ; i++ {
		switch cfg.arrival {
		case "poisson":
			t += rng.ExpFloat64() / rate
		case "fixed":
			t = float64(i) / rate
		default:
			return nil, fmt.Errorf("arrival %q: want poisson or fixed", cfg.arrival)
		}
		if t >= dur.Seconds() {
			break
		}
		p := olPlan{offset: time.Duration(t * float64(time.Second))}
		switch n := rng.Intn(wAdmit + wRel + wBatch); {
		case n < wAdmit:
			p.kind = 0
		case n < wAdmit+wRel:
			p.kind = 1
		default:
			p.kind = 2
			p.specB = gen.connSpec()
		}
		// Every plan carries an admit spec: releases that find the pool
		// empty fall back to it, exactly like the closed loop does.
		p.specA = gen.connSpec()
		plans = append(plans, p)
	}
	return plans, nil
}

// measureOpenLoop runs one rate point: every arrival is dispatched at its
// scheduled instant on its own goroutine (the client never waits for a
// previous response — fully open-loop) and the latency clock starts at the
// SCHEDULED time, so dispatch lag and server backlog both count.
func measureOpenLoop(cfg *config, base string, plans []olPlan) (openLoopPoint, error) {
	prefix := apiPrefix(cfg.network)
	client := &http.Client{Timeout: 30 * time.Second}
	pool := &olPool{}
	var mu sync.Mutex
	var lats []float64
	errs, rejected := 0, 0

	admit := func(spec netspec.ConnectionSpec) error {
		raw, _ := json.Marshal(service.AdmitRequest{Connection: spec})
		resp, err := client.Post(base+prefix+"/connections", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("admit: status %d", resp.StatusCode)
		}
		var ar service.AdmitResponse
		if json.Unmarshal(data, &ar) == nil && ar.Admitted {
			pool.add(spec.Name)
		} else {
			mu.Lock()
			rejected++
			mu.Unlock()
		}
		return nil
	}
	release := func(name string) error {
		req, err := http.NewRequest(http.MethodDelete, base+prefix+"/connections/"+name, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("release: status %d", resp.StatusCode)
		}
		return nil
	}
	batch := func(p olPlan) error {
		ops := []service.BatchOp{
			{Op: "admit", Connection: &p.specA},
			{Op: "admit", Connection: &p.specB},
		}
		if name, ok := pool.take(); ok {
			ops = append(ops, service.BatchOp{Op: "release", Name: name})
		}
		raw, _ := json.Marshal(service.BatchRequest{Operations: ops})
		resp, err := client.Post(base+prefix+"/batch", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch: status %d", resp.StatusCode)
		}
		var br service.BatchResponse
		if json.Unmarshal(data, &br) != nil {
			return fmt.Errorf("batch: bad response body")
		}
		for _, res := range br.Results {
			if res.Op == "admit" && res.Status == service.BatchStatusAdmitted {
				pool.add(ops[res.Index].Connection.Name)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	start := time.Now()
	for _, p := range plans {
		sched := start.Add(p.offset)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(p olPlan, sched time.Time) {
			defer wg.Done()
			var err error
			switch p.kind {
			case 1:
				if name, ok := pool.take(); ok {
					err = release(name)
				} else {
					err = admit(p.specA)
				}
			case 2:
				err = batch(p)
			default:
				err = admit(p.specA)
			}
			elapsed := time.Since(sched)
			mu.Lock()
			if err != nil {
				errs++
			} else {
				lats = append(lats, float64(elapsed.Microseconds())/1000)
			}
			mu.Unlock()
		}(p, sched)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(lats)
	pt := openLoopPoint{
		Scheduled: len(plans),
		Completed: len(lats),
		Errors:    errs,
		Rejected:  rejected,
		P50Ms:     percentile(lats, 0.50),
		P90Ms:     percentile(lats, 0.90),
		P99Ms:     percentile(lats, 0.99),
	}
	if len(lats) > 0 {
		sum := 0.0
		for _, v := range lats {
			sum += v
		}
		pt.MeanMs = sum / float64(len(lats))
		pt.MaxMs = lats[len(lats)-1]
		pt.AchievedRate = float64(len(lats)) / elapsed.Seconds()
	}
	return pt, nil
}

// runOpenLoopSweep measures every -open-rates point. Without -target each
// point gets a fresh in-process daemon so no point inherits the admitted
// set of a slower one; with -target all points drive the same daemon (its
// admitted set is bounded by the release mix, as in the closed loop).
func runOpenLoopSweep(cfg *config, targetNames []string, out io.Writer) (*openLoopReport, error) {
	rates, err := parseRates(cfg.openRates)
	if err != nil {
		return nil, err
	}
	dur := cfg.openDuration
	if dur <= 0 {
		dur = cfg.duration
	}
	rep := &openLoopReport{Arrival: cfg.arrival, Duration: dur.Seconds(), Mix: cfg.mix}
	fmt.Fprintf(out, "delayload: open-loop sweep (%s arrivals, %s per point)\n", cfg.arrival, dur)
	for _, rate := range rates {
		base, names := cfg.target, targetNames
		var shutdown func()
		if base == "" {
			base, names, shutdown, err = selfServe(cfg.self, cfg.analyzer)
			if err != nil {
				return nil, fmt.Errorf("rate=%g: %w", rate, err)
			}
		}
		plans, err := olSchedule(cfg, names, rate, dur)
		if err == nil && len(plans) == 0 {
			err = fmt.Errorf("rate %g over %s schedules no arrivals", rate, dur)
		}
		var pt openLoopPoint
		if err == nil {
			pt, err = measureOpenLoop(cfg, base, plans)
		}
		if shutdown != nil {
			shutdown()
		}
		if err != nil {
			return nil, fmt.Errorf("rate=%g: %w", rate, err)
		}
		pt.TargetRate = rate
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(out, "rate=%-6g %5d/%d done (%.0f ops/s achieved, %d errors)  p50 %.3f  p99 %.3f  max %.3f ms\n",
			rate, pt.Completed, pt.Scheduled, pt.AchievedRate, pt.Errors, pt.P50Ms, pt.P99Ms, pt.MaxMs)
	}
	if cfg.openCSV != "" {
		if err := writeOpenLoopCSV(cfg.openCSV, rep); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "open-loop CSV written to %s\n", cfg.openCSV)
	}
	return rep, nil
}

func writeOpenLoopCSV(path string, rep *openLoopReport) error {
	var sb strings.Builder
	sb.WriteString("target_rate,arrival,scheduled,completed,errors,achieved_ops_per_sec,mean_ms,p50_ms,p90_ms,p99_ms,max_ms\n")
	for _, pt := range rep.Points {
		fmt.Fprintf(&sb, "%g,%s,%d,%d,%d,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			pt.TargetRate, rep.Arrival, pt.Scheduled, pt.Completed, pt.Errors,
			pt.AchievedRate, pt.MeanMs, pt.P50Ms, pt.P90Ms, pt.P99Ms, pt.MaxMs)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
