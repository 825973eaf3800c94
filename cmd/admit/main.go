// Command admit demonstrates admission control: it fills a tandem fabric
// with identical deadline-bearing connections under each analysis
// algorithm and reports how many each one admits — the utilization payoff
// of tighter delay analysis.
//
// Usage:
//
//	admit [-servers 4] [-deadline 14] [-sigma 1] [-rho 0.02] [-limit 200]
//	      [-timeout 0]
//
// The greedy fill runs through the same admission engine the delayd daemon
// serves (docs/INCREMENTAL.md): under every analyzer each admission
// extends the previous analysis baseline instead of re-analyzing the whole
// network. The last column counts the incremental tests.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

func main() {
	var (
		nServers = flag.Int("servers", 4, "number of tandem servers")
		deadline = flag.Float64("deadline", 14, "end-to-end deadline of every connection")
		sigma    = flag.Float64("sigma", 1, "token bucket depth")
		rho      = flag.Float64("rho", 0.02, "token rate")
		limit    = flag.Int("limit", 200, "admission attempts")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per analyzer's greedy fill (0 = unlimited)")
	)
	flag.Parse()

	servers := make([]server.Server, *nServers)
	path := make([]int, *nServers)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
		path[i] = i
	}
	template := topo.Connection{
		Name:       "flow",
		Bucket:     traffic.TokenBucket{Sigma: *sigma, Rho: *rho},
		AccessRate: 1,
		Path:       path,
		Deadline:   *deadline,
	}

	fmt.Printf("fabric: %d-server tandem, deadline %g, source (%g, %g)\n\n",
		*nServers, *deadline, *sigma, *rho)
	fmt.Printf("%-14s %10s %16s %18s\n", "algorithm", "admitted", "max utilization", "incremental tests")
	// service.State is the same admission code path the delayd daemon
	// serves, so CLI numbers and server decisions cannot diverge.
	for _, a := range []analysis.Analyzer{analysis.Decomposed{}, analysis.ServiceCurve{}, analysis.Integrated{}} {
		state, err := service.NewState(servers, a)
		if err != nil {
			fatal(err)
		}
		ctx, cancel := fillContext(*timeout)
		n, err := state.Engine().FillGreedy(ctx, template, *limit)
		cancel()
		if err != nil {
			if admission.IsCanceled(err) {
				// The budget ran out mid-fill; the admitted count so far is
				// still a valid (conservative) capacity measurement.
				fmt.Fprintf(os.Stderr, "admit: %s fill cut off after %v (admitted so far reported)\n",
					a.Name(), *timeout)
			} else {
				fatal(err)
			}
		}
		maxU := 0.0
		for _, u := range state.Utilization() {
			if u > maxU {
				maxU = u
			}
		}
		stats, err := fetchStats(state)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %10d %15.1f%% %11d/%d\n", a.Name(), n, 100*maxU,
			stats.Tests.Incremental, stats.Tests.Incremental+stats.Tests.Full)
	}
}

// memResponse is a minimal in-process http.ResponseWriter so the CLI can
// read counters through the same network-scoped GET stats endpoint the
// daemon serves instead of reaching into engine internals.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header {
	if m.header == nil {
		m.header = make(http.Header)
	}
	return m.header
}

func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }
func (m *memResponse) WriteHeader(code int)        { m.status = code }

// fetchStats serves the v2 stats endpoint in-process against the state.
func fetchStats(state *service.State) (*service.StatsResponse, error) {
	api, err := service.NewServer(service.Config{State: state})
	if err != nil {
		return nil, err
	}
	url := "/v2/networks/" + service.DefaultNetworkID + "/stats"
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	rec := &memResponse{status: http.StatusOK}
	api.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, rec.status, rec.body.String())
	}
	var stats service.StatsResponse
	if err := json.Unmarshal(rec.body.Bytes(), &stats); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return &stats, nil
}

// fillContext derives the per-analyzer fill budget; zero means unlimited.
func fillContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "admit:", err)
	os.Exit(1)
}
