package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"strings"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

// serving is the fresh state one round of a serving workload runs
// against: a daemon over an empty fabric and, in a traced round, the
// layer replicas that advance in lock-step with it.
type serving struct {
	d        *daemon
	servers  []server.Server
	analyzer analysis.Analyzer
	reps     *replicas // nil in the timed run
}

func newServing(env *roundEnv, servers []server.Server, analyzer analysis.Analyzer, shards int) (*serving, error) {
	d, err := startDaemon(servers, analyzer, shards)
	if err != nil {
		return nil, err
	}
	s := &serving{d: d, servers: servers, analyzer: analyzer}
	if env.tr != nil {
		if s.reps, err = newReplicas(env.tr, d, servers, analyzer, shards); err != nil {
			d.stop()
			return nil, err
		}
	}
	return s, nil
}

// tandemServers is an n-switch tandem of unit-capacity FIFO servers.
func tandemServers(n int) []server.Server {
	servers := make([]server.Server, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	return servers
}

// prefillEnvelope is how many admissions one set-up envelope carries.
const prefillEnvelope = 50

// prefill admits n generated connections through batch envelopes and
// returns the names the daemon accepted.
func (s *serving) prefill(c *client, gen *connGen, n int) ([]string, error) {
	var admitted []string
	for done := 0; done < n; {
		size := min(prefillEnvelope, n-done)
		specs := make([]netspec.ConnectionSpec, size)
		ops := make([]service.BatchOp, size)
		for i := range specs {
			specs[i] = gen.next()
			ops[i] = service.BatchOp{Op: "admit", Connection: &specs[i]}
		}
		var resp service.BatchResponse
		if err := c.postJSON(apiPrefix+"/batch", service.BatchRequest{Operations: ops}, &resp); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		if resp.Errors > 0 || len(resp.Results) != size {
			return nil, fmt.Errorf("prefill: envelope answered %d errors, %d results", resp.Errors, len(resp.Results))
		}
		for _, r := range resp.Results {
			if r.Status == service.BatchStatusAdmitted {
				admitted = append(admitted, specs[r.Index].Name)
			}
		}
		if s.reps != nil {
			if err := s.reps.prefill(specs, resp.Results); err != nil {
				return nil, err
			}
		}
		done += size
	}
	return admitted, nil
}

// warm materialises the analysis baselines, as delayd does at start-up.
func (s *serving) warm() error {
	if err := s.d.state.WarmBaseline(); err != nil {
		return err
	}
	if s.reps != nil {
		return s.reps.warm()
	}
	return nil
}

// scraped is what the daemon's own counters read at one instant.
type scraped struct {
	stats                service.StatsResponse
	shed, degraded       float64
	cacheHits, cacheMiss float64
}

// scrape reads /stats and /metrics once.
func scrape(c *client) (scraped, error) {
	var sc scraped
	if err := c.getJSON(apiPrefix+"/stats", &sc.stats); err != nil {
		return sc, err
	}
	status, text, err := c.call(http.MethodGet, apiPrefix+"/metrics", nil)
	if err != nil || status != http.StatusOK {
		return sc, fmt.Errorf("GET metrics: status %d: %v", status, err)
	}
	want := map[string]*float64{
		"delayd_shed_requests_total":     &sc.shed,
		"delayd_degraded_requests_total": &sc.degraded,
		"delayd_cache_hits_total":        &sc.cacheHits,
		"delayd_cache_misses_total":      &sc.cacheMiss,
	}
	lines := bufio.NewScanner(bytes.NewReader(text))
	for lines.Scan() {
		name, value, ok := strings.Cut(lines.Text(), " ")
		if dst := want[name]; ok && dst != nil {
			if *dst, err = strconv.ParseFloat(value, 64); err != nil {
				return sc, fmt.Errorf("metrics line %q: %w", lines.Text(), err)
			}
		}
	}
	return sc, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fileCounts turns the counters read before and after the window into
// the admission and service count metrics.
func fileCounts(rd *roundData, before, after scraped) {
	b, a := before.stats, after.stats
	inc := float64(a.Releases.Incremental - b.Releases.Incremental)
	full := float64(a.Releases.Full - b.Releases.Full)
	rd.counts["admission.tests_incremental"] = float64(a.Tests.Incremental - b.Tests.Incremental)
	rd.counts["admission.tests_full"] = float64(a.Tests.Full - b.Tests.Full)
	rd.counts["admission.releases_incremental"] = inc
	rd.counts["admission.releases_compacted"] = full
	rd.counts["admission.compaction_ratio"] = ratio(full, inc+full)
	rd.counts["admission.commits"] = float64(a.SnapshotVersion - b.SnapshotVersion)
	rd.counts["admission.commits_per_envelope"] = ratio(float64(a.BatchCommits-b.BatchCommits), float64(a.BatchEnvelopes-b.BatchEnvelopes))
	rd.counts["admission.commit_conflicts"] = float64(a.CommitConflicts - b.CommitConflicts)
	rd.counts["admission.cross_shard_commits"] = float64(a.CrossShardCommits - b.CrossShardCommits)
	rd.counts["admission.rebalances"] = float64(a.Rebalances - b.Rebalances)
	rd.counts["admission.affected_mean"] = ratio(float64(a.AffectedSum-b.AffectedSum), float64(a.AffectedCount-b.AffectedCount))
	rd.counts["admission.admitted_final"] = float64(a.Admitted)
	rd.counts["service.shed_total"] = after.shed - before.shed
	rd.counts["service.degraded_total"] = after.degraded - before.degraded
	rd.counts["service.cache_hit_ratio"] = ratio(after.cacheHits-before.cacheHits,
		after.cacheHits-before.cacheHits+after.cacheMiss-before.cacheMiss)
}

// probeResponse is the part of a dry-run admit answer the check reads.
// A null bound is an unbounded one.
type probeResponse struct {
	Admitted bool       `json:"admitted"`
	Bounds   []*float64 `json:"bounds"`
}

// checkServing is the output check of a serving workload, run after the
// window: rebuild the network from GET connections, analyse it from
// scratch with the daemon's analyzer, and require (1) every admitted
// connection's bound within its deadline and (2) a dry-run admit of probe
// to answer exactly the bounds of a full analysis of admitted+probe. With
// several shards the answer covers the probe's shard, a contiguous run of
// the listing.
func checkServing(rd *roundData, c *client, servers []server.Server, analyzer analysis.Analyzer, probe netspec.ConnectionSpec) error {
	var list service.ListResponse
	if err := c.getJSON(apiPrefix+"/connections", &list); err != nil {
		return err
	}
	index, err := netspec.ServerIndex(servers)
	if err != nil {
		return err
	}
	net := &topo.Network{Servers: servers}
	for i := range list.Connections {
		conn, err := netspec.ConnectionFromSpec(&list.Connections[i], index)
		if err != nil {
			return fmt.Errorf("listed connection %q: %w", list.Connections[i].Name, err)
		}
		net.Connections = append(net.Connections, conn)
	}
	full, err := analysis.AnalyzeWithContext(context.Background(), analyzer, net)
	if err != nil {
		return fmt.Errorf("re-analysing the admitted set: %w", err)
	}
	sum := fnv.New64a()
	for i, b := range full.Bounds {
		if conn := net.Connections[i]; !(b <= conn.Deadline) {
			rd.failCheck("admitted connection %s has bound %g beyond its deadline %g", conn.Name, b, conn.Deadline)
		}
		fmt.Fprintf(sum, "%016x", math.Float64bits(b))
	}
	rd.digest = sum.Sum64()

	var got probeResponse
	if err := c.postJSON(apiPrefix+"/connections", service.AdmitRequest{Connection: probe, DryRun: true}, &got); err != nil {
		return err
	}
	cand, err := netspec.ConnectionFromSpec(&probe, index)
	if err != nil {
		return err
	}
	trial := &topo.Network{Servers: servers, Connections: append(append([]topo.Connection(nil), net.Connections...), cand)}
	want, err := analysis.AnalyzeWithContext(context.Background(), analyzer, trial)
	if err != nil {
		return fmt.Errorf("analysing admitted+probe: %w", err)
	}
	if !matchesRun(got.Bounds, want.Bounds) {
		rd.failCheck("dry-run bounds of %s differ from the full analysis of admitted+candidate", probe.Name)
	}
	return nil
}

// sameBound compares a wire bound (nil: unbounded) with a computed one,
// bit for bit.
func sameBound(got *float64, want float64) bool {
	if got == nil {
		return math.IsInf(want, 0) || math.IsNaN(want)
	}
	return math.Float64bits(*got) == math.Float64bits(want)
}

// matchesRun reports whether got — a shard's connections, then the
// candidate — equals a contiguous run of want's connections followed by
// want's last entry.
func matchesRun(got []*float64, want []float64) bool {
	n := len(got) - 1
	if n < 0 || n >= len(want) || !sameBound(got[n], want[len(want)-1]) {
		return false
	}
	for off := 0; off+n < len(want); off++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			ok = sameBound(got[i], want[off+i])
		}
		if ok {
			return true
		}
	}
	return false
}
