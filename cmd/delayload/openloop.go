// Open-loop sweep for delayload. The closed loop in main.go measures
// latency under a self-limiting workload: a slow response delays the next
// request, so overload hides itself (coordinated omission). The open loop
// instead fixes a Poisson arrival schedule at a target rate up front,
// dispatches every arrival at its scheduled instant regardless of how many
// requests are still in flight, and measures each operation from its
// SCHEDULED send time to completion. Queueing delay the daemon inflicts on
// a backlogged client shows up in the percentiles instead of silently
// stretching the schedule.
package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// point is one rate of the sweep: every operation class together, latency
// from the scheduled arrival instant.
type point struct {
	rate      float64
	scheduled int
	achieved  float64 // completed operations per second of the window
	stats
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

// arrival is one scheduled operation: its offset into the window and what
// it sends.
type arrival struct {
	offset time.Duration
	op     op
}

// schedule draws one rate point's arrivals up front from a single RNG, so
// the schedule is deterministic under -seed: exponential inter-arrival
// times at the given rate until the window ends.
func schedule(g *generator, rate float64, window time.Duration) []arrival {
	var plan []arrival
	for t := g.rng.ExpFloat64() / rate; t < window.Seconds(); t += g.rng.ExpFloat64() / rate {
		plan = append(plan, arrival{offset: time.Duration(t * float64(time.Second)), op: g.next()})
	}
	return plan
}

// openLoop runs one rate point through c: every arrival is dispatched at
// its scheduled instant on its own goroutine (the client never waits for a
// previous response) and the latency clock starts at the SCHEDULED time, so
// dispatch lag and server backlog both count.
func openLoop(c *client, plan []arrival) (stats, time.Duration) {
	p, rec := &pool{}, &recorder{}
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range plan {
		sched := start.Add(a.offset)
		time.Sleep(time.Until(sched))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, rejected, err := c.exec(a.op, p)
			rec.observe("all", time.Since(sched), rejected, err)
		}()
	}
	wg.Wait()
	return rec.classes["all"].stats(), time.Since(start)
}

// openLoopSweep measures every rate point for cfg.duration. Without -target
// each point gets a fresh in-process daemon so no point inherits the
// admitted set of a slower one; with -target all points drive the same
// daemon (its admitted set is bounded by the release mix, as in the closed
// loop).
func openLoopSweep(cfg *config, rates []float64, targetNames []string, out io.Writer) ([]point, error) {
	fmt.Fprintf(out, "delayload: open-loop sweep (Poisson arrivals, %s per point)\n", cfg.duration)
	var points []point
	for i, rate := range rates {
		pt, err := ratePoint(cfg, i, rate, targetNames)
		if err != nil {
			return points, fmt.Errorf("rate=%g: %w", rate, err)
		}
		points = append(points, pt)
		fmt.Fprintf(out, "rate=%-6g %5d/%d done (%.0f ops/s achieved, %d errors, %d rejected)  p50 %.3f  p99 %.3f  max %.3f ms\n",
			rate, pt.count, pt.scheduled, pt.achieved, pt.errors, pt.rejected, pt.p50, pt.p99, pt.max)
	}
	return points, nil
}

// ratePoint measures the i-th rate of the sweep.
func ratePoint(cfg *config, i int, rate float64, targetNames []string) (point, error) {
	base, names := cfg.target, targetNames
	if base == "" {
		var shutdown func()
		var err error
		if base, names, shutdown, err = selfServe(cfg.self, cfg.analyzer); err != nil {
			return point{}, err
		}
		defer shutdown()
	}
	g := newGenerator(cfg, names, cfg.seed+int64(rate*1000), fmt.Sprintf("ol%d", i))
	plan := schedule(g, rate, cfg.duration)
	if len(plan) == 0 {
		return point{}, fmt.Errorf("%s schedules no arrivals", cfg.duration)
	}
	st, elapsed := openLoop(newClient(base, cfg.network), plan)
	return point{rate: rate, scheduled: len(plan), achieved: float64(st.count) / elapsed.Seconds(), stats: st}, nil
}
