package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// newTenantServer builds a two-tenant server: network "alpha" (the
// default, servers a0/a1) and network "beta" (servers b0/b1), each with
// its own engine, cache, and metrics.
func newTenantServer(t *testing.T) *Server {
	t.Helper()
	reg := NewRegistry()
	for _, id := range []string{"alpha", "beta"} {
		prefix := id[:1]
		fabric := []server.Server{
			{Name: prefix + "0", Capacity: 1, Discipline: server.FIFO},
			{Name: prefix + "1", Capacity: 1, Discipline: server.FIFO},
		}
		state, err := NewState(fabric, analysis.Integrated{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Add(id, state, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func tenantAdmitBody(prefix, name string) string {
	return fmt.Sprintf(`{"connection": {"name": %q, "sigma": 1, "rho": 0.02, "access_rate": 1, "path": [%q, %q], "deadline": 20}}`,
		name, prefix+"0", prefix+"1")
}

func TestRegistryValidation(t *testing.T) {
	state, err := NewState(testFabric(), analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Add("tenant-a", state, nil); err != nil {
		t.Fatalf("valid id rejected: %v", err)
	}
	if _, err := reg.Add("tenant-a", state, nil); err == nil {
		t.Fatal("duplicate id accepted")
	}
	for _, bad := range []string{"", "has space", "slash/y", strings.Repeat("x", 65)} {
		if _, err := reg.Add(bad, state, nil); err == nil {
			t.Fatalf("invalid id %q accepted", bad)
		}
	}
	if got := reg.DefaultID(); got != "tenant-a" {
		t.Fatalf("default id: want first-added tenant-a, got %q", got)
	}
	if _, ok := reg.Get("ghost"); ok {
		t.Fatal("Get(ghost) found a network")
	}
}

func TestMultiNetworkIsolation(t *testing.T) {
	srv := newTenantServer(t)

	// Admissions and analyses against alpha...
	if w := do(t, srv, "POST", "/v2/networks/alpha/connections", tenantAdmitBody("a", "va")); w.Code != http.StatusOK {
		t.Fatalf("alpha admit: %d %s", w.Code, w.Body)
	}
	if w := do(t, srv, "POST", "/v2/networks/alpha/analyze", analyzeBody); w.Code != http.StatusOK {
		t.Fatalf("alpha analyze: %d %s", w.Code, w.Body)
	}

	// ...must leave beta's admitted set, engine counters, cache, and
	// request metrics untouched.
	list := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/beta/connections", ""))
	if list.Count != 0 || len(list.Connections) != 0 {
		t.Fatalf("beta sees alpha's connections: %+v", list)
	}
	stats := decode[StatsResponse](t, do(t, srv, "GET", "/v2/networks/beta/stats", ""))
	if stats.Admitted != 0 || stats.Tests.Incremental+stats.Tests.Full != 0 {
		t.Fatalf("beta engine counters perturbed: %+v", stats)
	}
	beta, _ := srv.Registry().Get("beta")
	if n := beta.Cache().Len(); n != 0 {
		t.Fatalf("beta cache holds %d entries after alpha analyze", n)
	}
	alpha, _ := srv.Registry().Get("alpha")
	if n := alpha.Cache().Len(); n != 1 {
		t.Fatalf("alpha cache: want 1 entry, got %d", n)
	}
	betaMetrics := do(t, srv, "GET", "/v2/networks/beta/metrics", "").Body.String()
	if strings.Contains(betaMetrics, `delayd_requests_total{endpoint="POST /v2/networks/{netid}/connections"`) {
		t.Fatal("beta metrics page counts alpha's admit request")
	}
	alphaMetrics := do(t, srv, "GET", "/v2/networks/alpha/metrics", "").Body.String()
	want := `delayd_requests_total{endpoint="POST /v2/networks/{netid}/connections",code="200"} 1`
	if !strings.Contains(alphaMetrics, want) {
		t.Fatalf("alpha metrics page missing %q", want)
	}

	// Beta's own fabric is fully usable and its admissions are invisible
	// to alpha.
	if w := do(t, srv, "POST", "/v2/networks/beta/connections", tenantAdmitBody("b", "vb")); w.Code != http.StatusOK {
		t.Fatalf("beta admit: %d %s", w.Code, w.Body)
	}
	alphaList := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/alpha/connections", ""))
	if alphaList.Count != 1 || alphaList.Connections[0].Name != "va" {
		t.Fatalf("alpha list after beta admit: %+v", alphaList)
	}
}

func TestUnknownNetwork(t *testing.T) {
	srv := newTenantServer(t)
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v2/networks/ghost/connections", ""},
		{"POST", "/v2/networks/ghost/connections", tenantAdmitBody("a", "x")},
		{"GET", "/v2/networks/ghost/stats", ""},
		{"DELETE", "/v2/networks/ghost/connections/x", ""},
	} {
		w := do(t, srv, tc.method, tc.path, tc.body)
		if w.Code != http.StatusNotFound {
			t.Fatalf("%s %s: want 404, got %d %s", tc.method, tc.path, w.Code, w.Body)
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeUnknownNetwork {
			t.Fatalf("%s %s: want code %q, got %q", tc.method, tc.path, CodeUnknownNetwork, env.Error.Code)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t, nil)
	for _, tc := range []struct {
		method, path string
		allow        []string
	}{
		{"PATCH", "/v2/networks/default/connections", []string{"GET", "POST"}},
		{"PUT", "/v2/networks/default/connections/video", []string{"DELETE"}},
		{"GET", "/v2/networks/default/batch", []string{"POST"}},
		{"DELETE", "/v2/networks", []string{"GET"}},
	} {
		w := do(t, srv, tc.method, tc.path, "")
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: want 405, got %d %s", tc.method, tc.path, w.Code, w.Body)
		}
		allow := w.Header().Get("Allow")
		for _, m := range tc.allow {
			if !strings.Contains(allow, m) {
				t.Fatalf("%s %s: Allow %q missing %s", tc.method, tc.path, allow, m)
			}
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeMethodNotAllowed {
			t.Fatalf("%s %s: want code %q, got %q", tc.method, tc.path, CodeMethodNotAllowed, env.Error.Code)
		}
	}

	// Unrouted paths answer with the same JSON envelope, not the mux's
	// plain-text 404.
	w := do(t, srv, "GET", "/v3/nope", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown path: want 404, got %d", w.Code)
	}
	if env := decode[errorResponse](t, w); env.Error.Code != CodeNotFound {
		t.Fatalf("unknown path: want code %q, got %q", CodeNotFound, env.Error.Code)
	}
}

func TestSnapshotVersionHeader(t *testing.T) {
	srv := newTestServer(t, nil)
	version := func(w *httptest.ResponseRecorder) uint64 {
		t.Helper()
		raw := w.Header().Get(SnapshotVersionHeader)
		if raw == "" {
			t.Fatalf("missing %s header", SnapshotVersionHeader)
		}
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", SnapshotVersionHeader, err)
		}
		return v
	}

	before := version(do(t, srv, "GET", "/v2/networks/default/connections", ""))
	if w := do(t, srv, "POST", "/v2/networks/default/connections", admitBody); w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}
	after := version(do(t, srv, "GET", "/v2/networks/default/connections", ""))
	if after <= before {
		t.Fatalf("snapshot version did not advance across a commit: %d -> %d", before, after)
	}

	w := do(t, srv, "GET", "/v2/networks/default/stats", "")
	stats := decode[StatsResponse](t, w)
	if got := version(w); got != stats.SnapshotVersion {
		t.Fatalf("stats header %d != body snapshot_version %d", got, stats.SnapshotVersion)
	}
	version(do(t, srv, "GET", "/v2/networks/default/metrics", ""))
}

func TestNetworksListing(t *testing.T) {
	srv := newTenantServer(t)
	if w := do(t, srv, "POST", "/v2/networks/beta/connections", tenantAdmitBody("b", "vb")); w.Code != http.StatusOK {
		t.Fatalf("beta admit: %d %s", w.Code, w.Body)
	}
	resp := decode[NetworksResponse](t, do(t, srv, "GET", "/v2/networks", ""))
	if len(resp.Networks) != 2 {
		t.Fatalf("want 2 networks, got %+v", resp)
	}
	byID := map[string]NetworkInfo{}
	for _, n := range resp.Networks {
		byID[n.ID] = n
	}
	if !byID["alpha"].Default || byID["beta"].Default {
		t.Fatalf("default flag: want alpha only, got %+v", resp.Networks)
	}
	if byID["alpha"].Admitted != 0 || byID["beta"].Admitted != 1 {
		t.Fatalf("admitted counts: %+v", resp.Networks)
	}
	if byID["alpha"].Shards != 1 {
		t.Fatalf("alpha shards: %+v", byID["alpha"])
	}
}

// TestCrossShardBatchStress churns a 4-shard engine through the HTTP API
// with component-local admits, cross-block (hence cross-shard) admits, and
// releases racing from several goroutines — run under -race in CI.
func TestCrossShardBatchStress(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 2, 0.5)
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

	const workers, iters = 4, 24
	// One resident connection per block, never released, puts every block
	// in its own shard before the workers start, so a worker's first
	// cross-block admit meets two shards however the workers interleave.
	for g := 0; g < workers; g++ {
		body := fmt.Sprintf(`{"operations": [{"op": "admit", "connection": {"name": "resident%d", "sigma": 1, "rho": 0.001, "access_rate": 1, "path": ["b%d.sw0.mid", "b%d.sw1.mid"], "deadline": 500}}]}`, g, g, g)
		resp := decode[BatchResponse](t, do(t, srv, "POST", "/v2/networks/default/batch", body))
		if len(resp.Results) != 1 || resp.Results[0].Status != BatchStatusAdmitted {
			t.Fatalf("resident connection of block %d: %+v", g, resp.Results)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := fmt.Sprintf("b%d.sw0.mid", g)
			local2 := fmt.Sprintf("b%d.sw1.mid", g)
			// Cross-block edges always point to a higher block so the
			// union of all racing paths stays feedforward (no ring).
			remote := fmt.Sprintf("b%d.sw0.mid", g+1)
			var pool []string
			for i := 0; i < iters; i++ {
				var ops []string
				name := fmt.Sprintf("g%dn%d", g, i)
				if i%6 == 5 && g+1 < workers {
					// A path spanning two blocks merges their components:
					// the sharded engine must take the cross-shard commit.
					ops = append(ops, fmt.Sprintf(
						`{"op": "admit", "connection": {"name": %q, "sigma": 1, "rho": 0.001, "access_rate": 1, "path": [%q, %q], "deadline": 500}}`,
						name, local, remote))
				} else {
					ops = append(ops, fmt.Sprintf(
						`{"op": "admit", "connection": {"name": %q, "sigma": 1, "rho": 0.001, "access_rate": 1, "path": [%q, %q], "deadline": 500}}`,
						name, local, local2))
				}
				if len(pool) > 1 {
					ops = append(ops, fmt.Sprintf(`{"op": "release", "name": %q}`, pool[0]))
					pool = pool[1:]
				}
				body := `{"operations": [` + strings.Join(ops, ",") + `]}`
				r := httptest.NewRequest("POST", "/v2/networks/default/batch", strings.NewReader(body))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d batch: %d %s", g, w.Code, w.Body)
					return
				}
				var resp BatchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("worker %d batch decode: %v", g, err)
					return
				}
				for _, res := range resp.Results {
					if res.Status == BatchStatusError {
						errs <- fmt.Errorf("worker %d op %d: %+v", g, res.Index, res.Error)
						return
					}
					if res.Op == "admit" && res.Status == BatchStatusAdmitted {
						pool = append(pool, name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats := decode[StatsResponse](t, do(t, srv, "GET", "/v2/networks/default/stats", ""))
	if stats.Shards != 4 {
		t.Fatalf("want 4 shards, got %+v", stats)
	}
	if stats.CrossShardCommits == 0 {
		t.Fatal("no cross-shard commits despite block-spanning admissions")
	}
	list := decode[ListResponse](t, do(t, srv, "GET", "/v2/networks/default/connections?limit=1000", ""))
	if list.Count != stats.Admitted {
		t.Fatalf("replica list count %d != stats admitted %d", list.Count, stats.Admitted)
	}
}
