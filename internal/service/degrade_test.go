package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/minplus"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// TestAnalyzeDegradesToDecomposed forces the soft budget to expire
// instantly: the integrated analysis still runs, once, taking the
// decomposed ceiling of every interval instead of searching, and the
// response is labeled degraded with the bound source while the algorithm
// stays the analyzer that ran. The bounds must lie between the two
// analyzers', and nothing is cached.
func TestAnalyzeDegradesToDecomposed(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(analyzeBody), &req); err != nil {
		t.Fatal(err)
	}
	net, err := netspec.FromSpec(&req.Network)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := analysis.Integrated{}.Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := analysis.Decomposed{}.Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	// Twice: a degraded result depends on when the budget ran out, so the
	// repeat re-analyzes instead of hitting the cache.
	for round := 1; round <= 2; round++ {
		w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
		if w.Code != http.StatusOK {
			t.Fatalf("degraded analyze: %d %s", w.Code, w.Body)
		}
		resp := decode[AnalyzeResponse](t, w)
		if !resp.Degraded || resp.Cached {
			t.Fatalf("round %d: want degraded:true and no cache hit, got %s", round, w.Body)
		}
		if resp.BoundSource != (analysis.Decomposed{}).Name() {
			t.Fatalf("want bound_source %q, got %q", (analysis.Decomposed{}).Name(), resp.BoundSource)
		}
		if resp.Algorithm != (analysis.Integrated{}).Name() {
			t.Fatalf("degraded algorithm %q, want the analyzer that ran", resp.Algorithm)
		}
		if got := srv.Metrics().Degraded(); got != uint64(round) {
			t.Fatalf("degraded counter = %d, want %d", got, round)
		}
		if len(resp.Bounds) != len(lo.Bounds) {
			t.Fatalf("degraded bounds length %d, want %d", len(resp.Bounds), len(lo.Bounds))
		}
		for i, b := range resp.Bounds {
			if float64(b) < lo.Bounds[i]-minplus.Eps || float64(b) > hi.Bounds[i]+minplus.Eps {
				t.Errorf("degraded bound %d = %v outside [integrated %v, decomposed %v]", i, b, lo.Bounds[i], hi.Bounds[i])
			}
		}
	}
	digest, err := netspec.Digest(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []analysis.Analyzer{analysis.Integrated{}, analysis.Decomposed{}} {
		if _, ok := srv.Cache().Get(a.Name() + ":" + digest); ok {
			t.Fatalf("degraded result cached under the %s key", a.Name())
		}
	}
}

// TestAnalyzeDecomposedNeverDegrades pins that an analyzer with no theta
// search never reads the soft budget: there is nothing to cut short, so it
// runs to completion under the hard deadline.
func TestAnalyzeDecomposedNeverDegrades(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	body := strings.Replace(analyzeBody, `"integrated"`, `"decomposed"`, 1)
	w := do(t, srv, "POST", "/v2/networks/default/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("decomposed analyze under 1ns budget: %d %s", w.Code, w.Body)
	}
	resp := decode[AnalyzeResponse](t, w)
	if resp.Degraded {
		t.Fatalf("decomposed analysis reported degraded: %s", w.Body)
	}
}

// TestAnalyzeTimeoutOverride pins the per-request budget override: a
// negative value is rejected up front, a generous value disables the
// degradation the 1ns server default would force.
func TestAnalyzeTimeoutOverride(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	bad := analyzeBody[:len(analyzeBody)-1] + `, "timeout_seconds": -1}`
	w := do(t, srv, "POST", "/v2/networks/default/analyze", bad)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("negative timeout_seconds: want 400, got %d %s", w.Code, w.Body)
	}
	generous := analyzeBody[:len(analyzeBody)-1] + `, "timeout_seconds": 30}`
	w = do(t, srv, "POST", "/v2/networks/default/analyze", generous)
	if w.Code != http.StatusOK {
		t.Fatalf("override analyze: %d %s", w.Code, w.Body)
	}
	if resp := decode[AnalyzeResponse](t, w); resp.Degraded {
		t.Fatalf("30s override still degraded: %s", w.Body)
	}
}

// TestAdmitDegradesToDecomposed forces the admission test onto the
// degraded path and checks the decision still commits: the decomposed
// bound dominates the integrated one, so an admission it grants is safe.
// Integrated is the incremental primary on a FIFO and on a static-priority
// fabric; a static-priority tenant degrades to the decomposed
// static-priority bound.
func TestAdmitDegradesToDecomposed(t *testing.T) {
	spFabric := testFabric()
	for i := range spFabric {
		spFabric[i].Discipline = server.StaticPriority
	}
	for _, tc := range []struct {
		analyzer analysis.Analyzer
		fabric   []server.Server
	}{{analysis.Integrated{}, testFabric()}, {analysis.Integrated{}, spFabric}} {
		name := tc.analyzer.Name() + "/" + tc.fabric[0].Discipline.String()
		state, err := NewState(tc.fabric, tc.analyzer)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{State: state, AnalyzeTimeout: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: degraded admit: %d %s", name, w.Code, w.Body)
		}
		resp := decode[AdmitResponse](t, w)
		if !resp.Degraded {
			t.Fatalf("%s: want degraded:true, got %s", name, w.Body)
		}
		if resp.BoundSource != (analysis.Decomposed{}).Name() {
			t.Fatalf("%s: want bound_source %q, got %q", name, (analysis.Decomposed{}).Name(), resp.BoundSource)
		}
		if !resp.Admitted || resp.Count != 1 {
			t.Fatalf("%s: degraded admit should still commit: %+v", name, resp)
		}
		if state.Count() != 1 {
			t.Fatalf("%s: state count = %d after degraded admit", name, state.Count())
		}
		// The decomposed bounds the decision was made on.
		lib, err := analysis.Decomposed{}.Analyze(&topo.Network{
			Servers:     tc.fabric,
			Connections: []topo.Connection{mustConnection(t, admitBody)},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range lib.Bounds {
			if float64(resp.Bounds[i]) != lib.Bounds[i] {
				t.Errorf("%s: degraded admit bound %d = %v, want decomposed %v", name, i, resp.Bounds[i], lib.Bounds[i])
			}
		}
	}
}

// TestBatchDegradesWithOneCommit runs a live envelope under an instant soft
// budget: every item is marked degraded, the committed count matches, and
// the degraded re-run is still ONE snapshot commit (batch_commits and the
// snapshot version each move by exactly 1, not once per operation).
func TestBatchDegradesWithOneCommit(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	conn := connectionOf(admitBody)
	conn2 := strings.Replace(conn, `"video"`, `"audio"`, 1)
	body := fmt.Sprintf(`{"operations": [{"op": "admit", "connection": %s}, {"op": "admit", "connection": %s}]}`, conn, conn2)
	before := srv.State().Engine().Stats()
	w := do(t, srv, "POST", "/v2/networks/default/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded batch: %d %s", w.Code, w.Body)
	}
	resp := decode[BatchResponse](t, w)
	if resp.Admitted != 2 || resp.Count != 2 {
		t.Fatalf("degraded batch admitted %d (count %d), want 2: %s", resp.Admitted, resp.Count, w.Body)
	}
	for i, item := range resp.Results {
		if item.Decision == nil || !item.Decision.Degraded {
			t.Errorf("batch item %d not marked degraded: %+v", i, item)
		}
	}
	if got := srv.Metrics().Degraded(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1 per envelope", got)
	}
	after := srv.State().Engine().Stats()
	if got := after.BatchCommits - before.BatchCommits; got != 1 {
		t.Fatalf("degraded envelope moved batch_commits by %d, want exactly 1", got)
	}
	if got := srv.State().SnapshotVersion(); got != 1 {
		t.Fatalf("degraded envelope advanced the snapshot version to %d, want 1", got)
	}
	if after.BatchCommits > after.BatchEnvelopes {
		t.Fatalf("batch_commits %d > batch_envelopes %d", after.BatchCommits, after.BatchEnvelopes)
	}
}

// TestRemoveDegradesWithoutShrinking runs a DELETE on a warm network past
// its soft budget: the shrink replays the survivor's two-hop closure on a
// decomposed ceiling, and a baseline computed that way is never kept. The
// release drops it, answers 200 and commits once.
func TestRemoveDegradesWithoutShrinking(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.AnalyzeTimeout = time.Nanosecond })
	eng := srv.State().Engine()
	video := mustConnection(t, admitBody)
	audio := video
	audio.Name = "audio"
	for _, c := range []topo.Connection{video, audio} {
		admitDirect(t, srv.State(), c)
	}
	before := eng.Stats()
	w := do(t, srv, "DELETE", "/v2/networks/default/connections/video", "")
	if w.Code != http.StatusOK {
		t.Fatalf("degraded DELETE: %d %s", w.Code, w.Body)
	}
	if resp := decode[RemoveResponse](t, w); resp != (RemoveResponse{Removed: "video", Count: 1, Mode: "compacted"}) {
		t.Fatalf("degraded DELETE answered %+v", resp)
	}
	if got := srv.Metrics().Degraded(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
	after := eng.Stats()
	if commits, dropped, shrunk := after.BatchCommits-before.BatchCommits, after.CompactedReleases-before.CompactedReleases,
		after.IncrementalReleases-before.IncrementalReleases; commits != 1 || dropped != 1 || shrunk != 0 {
		t.Fatalf("degraded DELETE made %d commits, dropped %d and shrank %d baselines, want 1, 1 and 0", commits, dropped, shrunk)
	}
}

// admitDirect admits c through the state's write path, below the HTTP
// layer and its budgets, as an envelope of one.
func admitDirect(t *testing.T, st *State, c topo.Connection) {
	t.Helper()
	br, err := st.ApplyBatch(context.Background(), []admission.Op{{Kind: admission.OpAdmit, Candidate: c}})
	if err != nil || br.Results[0].Err != nil || !br.Results[0].Decision.Admitted {
		t.Fatalf("admit %s: %+v %v", c.Name, br, err)
	}
}

// TestShardedSingleAdmitDegrades pins degradation on a multi-shard daemon:
// a single admit whose soft budget expires completes on the decomposed
// ceilings instead of running undegraded to the hard deadline.
func TestShardedSingleAdmitDegrades(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	state, err := NewStateShards(net.Servers, analysis.Integrated{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{State: state, AnalyzeTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range net.Connections {
		spec := netspec.ToSpec(&topo.Network{Servers: net.Servers, Connections: []topo.Connection{c}}).Connections[0]
		spec.Deadline = 1000
		body, err := json.Marshal(AdmitRequest{Connection: spec})
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, srv, "POST", "/v2/networks/default/connections", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("admit %d on 4 shards: %d %s", i, w.Code, w.Body)
		}
		resp := decode[AdmitResponse](t, w)
		if !resp.Admitted || !resp.Degraded || resp.BoundSource != (analysis.Decomposed{}).Name() {
			t.Fatalf("admit %d on 4 shards: want an admitted, degraded decomposed decision, got %s", i, w.Body)
		}
	}
	if state.Count() != len(net.Connections) {
		t.Fatalf("count %d, want %d", state.Count(), len(net.Connections))
	}
	if st := state.Engine().Stats(); st.PerShard[0].Admitted == len(net.Connections) {
		t.Fatalf("every connection landed on one shard; the test never left shard 0: %+v", st.PerShard)
	}

	// A live envelope spanning shards degrades too — the budget travels with
	// the context into every sub-batch — and is still one commit per shard
	// touched, every item marked.
	var ops []BatchOp
	for _, c := range []topo.Connection{net.Connections[0], net.Connections[len(net.Connections)-1]} {
		spec := netspec.ToSpec(&topo.Network{Servers: net.Servers, Connections: []topo.Connection{c}}).Connections[0]
		spec.Name += ".again"
		spec.Deadline = 1000
		ops = append(ops, BatchOp{Op: "admit", Connection: &spec})
	}
	body, err := json.Marshal(BatchRequest{Operations: ops})
	if err != nil {
		t.Fatal(err)
	}
	before := state.SnapshotVersion()
	w := do(t, srv, "POST", "/v2/networks/default/batch", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("2-shard envelope: %d %s", w.Code, w.Body)
	}
	for i, item := range decode[BatchResponse](t, w).Results {
		if item.Status != BatchStatusAdmitted || !item.Decision.Degraded {
			t.Fatalf("2-shard envelope op %d: want admitted and degraded, got %+v", i, item)
		}
	}
	if got := state.SnapshotVersion() - before; got != 2 {
		t.Fatalf("degraded 2-shard envelope committed %d times, want one per shard", got)
	}
}

// TestShardedBatchTimeoutSecondsDegrades arms the budget per request on a
// warm 4-shard daemon: a batch spanning two shards with a 1 ns
// timeout_seconds answers 200 with every item degraded and one commit per
// shard — the same envelope the default budget serves undegraded.
func TestShardedBatchTimeoutSecondsDegrades(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	state, err := NewStateShards(net.Servers, analysis.Integrated{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{State: state})
	if err != nil {
		t.Fatal(err)
	}
	envelope := func(suffix string, conns []topo.Connection, timeout float64) BatchResponse {
		t.Helper()
		req := BatchRequest{TimeoutSeconds: timeout}
		for _, c := range conns {
			spec := netspec.ToSpec(&topo.Network{Servers: net.Servers, Connections: []topo.Connection{c}}).Connections[0]
			spec.Name += suffix
			spec.Deadline = 1000
			req.Operations = append(req.Operations, BatchOp{Op: "admit", Connection: &spec})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, srv, "POST", "/v2/networks/default/batch", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("envelope %q: %d %s", suffix, w.Code, w.Body)
		}
		return decode[BatchResponse](t, w)
	}
	for i, item := range envelope("", net.Connections, 0).Results {
		if item.Status != BatchStatusAdmitted || item.Decision.Degraded {
			t.Fatalf("setup op %d under the default budget: want admitted and not degraded, got %+v", i, item)
		}
	}
	before := state.SnapshotVersion()
	spanning := []topo.Connection{net.Connections[0], net.Connections[len(net.Connections)-1]}
	for i, item := range envelope(".again", spanning, 1e-9).Results {
		if item.Status != BatchStatusAdmitted || !item.Decision.Degraded {
			t.Fatalf("1ns envelope op %d: want admitted and degraded, got %+v", i, item)
		}
	}
	if got := state.SnapshotVersion() - before; got != 2 {
		t.Fatalf("degraded 2-shard envelope committed %d times, want one per shard", got)
	}
	if got := srv.Metrics().Degraded(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1 per envelope", got)
	}
}

// TestRemoveIsShed pins that DELETE is an envelope like every other write:
// it answers 503 + Retry-After when the request deadline has already passed
// and when no analysis slot frees before it, and removes nothing.
func TestRemoveIsShed(t *testing.T) {
	check := func(t *testing.T, srv *Server) {
		t.Helper()
		w := do(t, srv, "DELETE", "/v2/networks/default/connections/video", "")
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
			t.Fatalf("DELETE: want a 503 with Retry-After, got %d %s", w.Code, w.Body)
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeTimeout {
			t.Fatalf("DELETE: want code %q, got %s", CodeTimeout, w.Body)
		}
		if srv.State().Count() != 1 {
			t.Fatalf("shed DELETE removed the connection: count %d", srv.State().Count())
		}
	}
	admitted := func(t *testing.T, srv *Server) {
		t.Helper()
		admitDirect(t, srv.State(), mustConnection(t, admitBody))
	}
	t.Run("deadline passed", func(t *testing.T) {
		srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
		admitted(t, srv)
		check(t, srv)
	})
	t.Run("no slot frees", func(t *testing.T) {
		srv := newTestServer(t, func(c *Config) { c.RequestTimeout = 20 * time.Millisecond; c.MaxInFlight = 1 })
		admitted(t, srv)
		srv.sem <- struct{}{} // another request holds the only analysis slot
		check(t, srv)
		<-srv.sem
		if w := do(t, srv, "DELETE", "/v2/networks/default/connections/video", ""); w.Code != http.StatusOK {
			t.Fatalf("DELETE with a free slot: %d %s", w.Code, w.Body)
		}
	})
}

// TestPanickingAnalyzerRecovered injects an analyzer that panics mid
// analysis: the request must answer the standard 500 envelope, the panic
// must not kill the process, and the in-flight gauge must return to zero
// (the defer-based accounting satellite).
func TestPanickingAnalyzerRecovered(t *testing.T) {
	srv := newTestServer(t, nil)
	srv.pick = func(string) (analysis.Analyzer, error) { return panicAnalyzer{}, nil }
	w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panic analyze: want 500, got %d %s", w.Code, w.Body)
	}
	env := decode[errorResponse](t, w)
	if env.Error.Code != CodeInternal {
		t.Fatalf("panic envelope code %q, want %q", env.Error.Code, CodeInternal)
	}
	if got := srv.Metrics().InFlight(); got != 0 {
		t.Fatalf("in-flight gauge %d after recovered panic, want 0", got)
	}
	// The server keeps serving afterwards.
	if w := do(t, srv, "GET", "/v2/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", w.Code)
	}
}

// panicAnalyzer is the decomposed analysis panicking when it runs.
type panicAnalyzer struct{ analysis.Decomposed }

func (panicAnalyzer) AnalyzeContext(context.Context, *topo.Network) (*analysis.Result, error) {
	panic("injected analyzer panic")
}

// TestCancelledAnalysisNoGoroutineLeak sheds a burst of instantly
// timed-out requests and checks the goroutine count settles back: the
// synchronous, context-aware analyze path leaves nothing running behind a
// shed response.
func TestCancelledAnalysisNoGoroutineLeak(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
			if w.Code != http.StatusServiceUnavailable {
				t.Errorf("want 503, got %d", w.Code)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked by shed analyses: %d before, %d after settle",
		before, runtime.NumGoroutine())
}

// mustConnection decodes the connection object of an AdmitRequest body
// against the test fabric.
func mustConnection(t *testing.T, body string) topo.Connection {
	t.Helper()
	var req AdmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	index, err := netspec.ServerIndex(testFabric())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := netspec.ConnectionFromSpec(&req.Connection, index)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}
