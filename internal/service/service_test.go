package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// testFabric is a 2-server tandem with unit capacity, matching the paper's
// topology at small scale.
func testFabric() []server.Server {
	return []server.Server{
		{Name: "s0", Capacity: 1, Discipline: server.FIFO},
		{Name: "s1", Capacity: 1, Discipline: server.FIFO},
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	state, err := NewState(testFabric(), analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{State: state}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do runs one request through the full instrumented handler stack.
func do(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

const admitBody = `{"connection": {"name": "video", "sigma": 1, "rho": 0.02, "access_rate": 1, "path": ["s0", "s1"], "deadline": 20}}`

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(t, srv, "GET", "/v2/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
}

func TestAdmitMatchesLibrary(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	if w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}
	resp := decode[AdmitResponse](t, w)
	if !resp.Admitted || resp.Count != 1 {
		t.Fatalf("want admitted count=1, got %+v", resp)
	}

	// The same candidate through the raw library must yield identical
	// bounds — CLI, daemon, and library share one decision path.
	ctrl, err := admission.New(testFabric(), analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Admit(topo.Connection{
		Name:       "video",
		Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.02},
		AccessRate: 1,
		Path:       []int{0, 1},
		Deadline:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bounds) != len(resp.Bounds) {
		t.Fatalf("bounds length: lib %d, service %d", len(d.Bounds), len(resp.Bounds))
	}
	for i := range d.Bounds {
		if float64(resp.Bounds[i]) != d.Bounds[i] {
			t.Errorf("bound %d: lib %g, service %g", i, d.Bounds[i], float64(resp.Bounds[i]))
		}
	}
}

func TestAdmitDryRun(t *testing.T) {
	srv := newTestServer(t, nil)
	body := admitBody[:len(admitBody)-1] + `, "dry_run": true}`
	w := do(t, srv, "POST", "/v2/networks/default/connections", body)
	resp := decode[AdmitResponse](t, w)
	if w.Code != http.StatusOK || !resp.Admitted || !resp.DryRun {
		t.Fatalf("dry run: %d %+v", w.Code, resp)
	}
	if srv.State().Count() != 0 {
		t.Fatalf("dry run committed a connection: count %d", srv.State().Count())
	}
}

func TestAdmitRejection(t *testing.T) {
	srv := newTestServer(t, nil)
	// Without an access-rate cap the bucket burst arrives instantaneously
	// and the bound is at least sigma/capacity = 1 > 0.001.
	tight := strings.Replace(admitBody, `"deadline": 20`, `"deadline": 0.001`, 1)
	tight = strings.Replace(tight, `"access_rate": 1, `, "", 1)
	w := do(t, srv, "POST", "/v2/networks/default/connections", tight)
	resp := decode[AdmitResponse](t, w)
	if w.Code != http.StatusOK || resp.Admitted {
		t.Fatalf("want clean rejection, got %d %+v", w.Code, resp)
	}
	if resp.Reason == "" || resp.Count != 0 {
		t.Fatalf("rejection must carry a reason and leave count 0: %+v", resp)
	}
}

func TestAdmitBadInput(t *testing.T) {
	srv := newTestServer(t, nil)
	cases := map[string]string{
		"malformed JSON":    `{"connection": `,
		"unknown field":     `{"connection": {"name": "x"}, "bogus": 1}`,
		"unknown server":    `{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["nope"], "deadline": 5}}`,
		"no deadline":       `{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["s0"]}}`,
		"no name":           `{"connection": {"sigma": 1, "rho": 0.1, "path": ["s0"], "deadline": 5}}`,
		"no name, dry run":  `{"connection": {"sigma": 1, "rho": 0.1, "path": ["s0"], "deadline": 5}, "dry_run": true}`,
		"trailing data":     `{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["s0"], "deadline": 5}} garbage`,
		"negative sigma":    `{"connection": {"name": "x", "sigma": -1, "rho": 0.1, "path": ["s0"], "deadline": 5}}`,
		"path out of range": `{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": [9], "deadline": 5}}`,
	}
	for label, body := range cases {
		w := do(t, srv, "POST", "/v2/networks/default/connections", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d %s", label, w.Code, w.Body)
		}
	}
	if srv.State().Count() != 0 {
		t.Fatalf("bad input mutated state: count %d", srv.State().Count())
	}
}

func TestListAndRemove(t *testing.T) {
	srv := newTestServer(t, nil)
	if w := do(t, srv, "POST", "/v2/networks/default/connections", admitBody); w.Code != http.StatusOK {
		t.Fatalf("admit: %d %s", w.Code, w.Body)
	}

	w := do(t, srv, "GET", "/v2/networks/default/connections", "")
	list := decode[ListResponse](t, w)
	if list.Count != 1 || len(list.Connections) != 1 || list.Connections[0].Name != "video" {
		t.Fatalf("list: %+v", list)
	}
	if len(list.Utilization) != 2 || list.Utilization[0] != 0.02 {
		t.Fatalf("utilization: %+v", list.Utilization)
	}

	if w := do(t, srv, "DELETE", "/v2/networks/default/connections/video", ""); w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	if srv.State().Count() != 0 {
		t.Fatalf("remove did not release: count %d", srv.State().Count())
	}
	if w := do(t, srv, "DELETE", "/v2/networks/default/connections/video", ""); w.Code != http.StatusNotFound {
		t.Fatalf("second remove: want 404, got %d", w.Code)
	}
}

const analyzeBody = `{"analyzer": "integrated", "network": {
  "servers": [{"name": "s0", "capacity": 1}, {"name": "s1", "capacity": 1}],
  "connections": [{"name": "c", "sigma": 1, "rho": 0.1, "path": ["s0", "s1"]}]
}}`

func TestAnalyzeAndCache(t *testing.T) {
	srv := newTestServer(t, nil)
	w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	first := decode[AnalyzeResponse](t, w)
	if first.Cached || len(first.Bounds) != 1 || first.Bounds[0] <= 0 {
		t.Fatalf("first analyze: %+v", first)
	}

	// Same network, different formatting and hop addressing: must hit.
	reformatted := `{"analyzer":"int","network":{"servers":[{"name":"s0","capacity":1},{"name":"s1","capacity":1}],"connections":[{"name":"c","sigma":1,"rho":0.1,"path":[0,1]}]}}`
	w = do(t, srv, "POST", "/v2/networks/default/analyze", reformatted)
	second := decode[AnalyzeResponse](t, w)
	if !second.Cached {
		t.Fatalf("equivalent spec missed the cache: %+v", second)
	}
	if second.Digest != first.Digest || second.Bounds[0] != first.Bounds[0] {
		t.Fatalf("cache returned a different result: %+v vs %+v", first, second)
	}

	// A different analyzer over the same network must not collide.
	other := strings.Replace(analyzeBody, `"integrated"`, `"decomposed"`, 1)
	w = do(t, srv, "POST", "/v2/networks/default/analyze", other)
	third := decode[AnalyzeResponse](t, w)
	if third.Cached {
		t.Fatalf("different analyzer hit the cache: %+v", third)
	}

	hits, misses := srv.Cache().Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("want 1 hit / 2 misses, got %d / %d", hits, misses)
	}
}

func TestAnalyzeUnstableReportsNullBounds(t *testing.T) {
	srv := newTestServer(t, nil)
	unstable := strings.Replace(analyzeBody, `"rho": 0.1`, `"rho": 1.5, "sigma": 1`, 1)
	unstable = strings.Replace(unstable, `"access_rate": 1, `, "", 1)
	w := do(t, srv, "POST", "/v2/networks/default/analyze", unstable)
	if w.Code != http.StatusOK {
		t.Fatalf("unstable analyze: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "null") {
		t.Fatalf("unbounded delay must serialize as null: %s", w.Body)
	}
}

func TestAnalyzeBadInput(t *testing.T) {
	srv := newTestServer(t, nil)
	cases := map[string]struct {
		body string
		want int
	}{
		"unknown analyzer": {strings.Replace(analyzeBody, `"integrated"`, `"quantum"`, 1), http.StatusBadRequest},
		"malformed JSON":   {`{"analyzer": "integrated", "network": {`, http.StatusBadRequest},
		"empty network":    {`{"analyzer": "integrated", "network": {}}`, http.StatusBadRequest},
		"unknown hop":      {strings.Replace(analyzeBody, `["s0", "s1"]`, `["ghost"]`, 1), http.StatusBadRequest},
	}
	for label, c := range cases {
		w := do(t, srv, "POST", "/v2/networks/default/analyze", c.body)
		if w.Code != c.want {
			t.Errorf("%s: want %d, got %d %s", label, c.want, w.Code, w.Body)
		}
	}
}

func TestOversizedBody(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	big := `{"connection": {"name": "` + strings.Repeat("x", 200) + `"}}`
	w := do(t, srv, "POST", "/v2/networks/default/connections", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("want 413, got %d %s", w.Code, w.Body)
	}
}

func TestRequestTimeout(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	// The deadline expires before the handler reaches the analysis, so
	// both stateful and stateless endpoints must shed with 503 without
	// touching state.
	w := do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("analyze timeout: want 503, got %d %s", w.Code, w.Body)
	}
	w = do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("admit timeout: want 503, got %d %s", w.Code, w.Body)
	}
	if srv.State().Count() != 0 {
		t.Fatalf("timed-out admit mutated state")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody)
	do(t, srv, "POST", "/v2/networks/default/analyze", analyzeBody) // cache hit

	w := do(t, srv, "GET", "/v2/networks/default/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`delayd_requests_total{endpoint="POST /v2/networks/{netid}/connections",code="200"} 1`,
		`delayd_requests_total{endpoint="POST /v2/networks/{netid}/analyze",code="200"} 2`,
		`delayd_request_duration_seconds_count{endpoint="POST /v2/networks/{netid}/analyze"} 2`,
		`delayd_cache_hits_total 1`,
		`delayd_cache_misses_total 1`,
		`delayd_cache_hit_ratio 0.5`,
		`delayd_admitted_connections 1`,
		`delayd_server_utilization{server="s0"} 0.02`,
		// The in-flight gauge is sampled while the /metrics request
		// itself is still being handled, so it reads 1.
		`delayd_in_flight_requests 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestConcurrentAdmitRelease hammers every mutating endpoint from many
// goroutines; run with -race this is the data-race check for the locked
// wrapper around admission.Controller.
func TestConcurrentAdmitRelease(t *testing.T) {
	srv := newTestServer(t, nil)
	const workers = 16
	const rounds = 3

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("c%d-%d", g, i)
				body := fmt.Sprintf(`{"connection": {"name": %q, "sigma": 0.1, "rho": 0.001, "access_rate": 1, "path": ["s0", "s1"], "deadline": 50}}`, name)
				w := do(t, srv, "POST", "/v2/networks/default/connections", body)
				if w.Code != http.StatusOK {
					t.Errorf("admit %s: %d %s", name, w.Code, w.Body)
					continue
				}
				resp := decode[AdmitResponse](t, w)
				do(t, srv, "GET", "/v2/networks/default/connections", "")
				do(t, srv, "GET", "/v2/networks/default/metrics", "")
				if resp.Admitted {
					if w := do(t, srv, "DELETE", "/v2/networks/default/connections/"+name, ""); w.Code != http.StatusOK {
						t.Errorf("remove %s: %d %s", name, w.Code, w.Body)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := srv.State().Count(); n != 0 {
		t.Fatalf("admit/release imbalance: %d connections left", n)
	}
	if in := srv.Metrics().InFlight(); in != 0 {
		t.Fatalf("in-flight gauge leaked: %d", in)
	}
}

func TestBoundMarshalsInfAsNull(t *testing.T) {
	b, err := json.Marshal([]Bound{1.5, Bound(math.Inf(1)), Bound(math.Inf(-1))})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1.5,null,null]" {
		t.Fatalf("got %s", b)
	}
}

// jsonBound is what a bound on the wire used to be: null when it is not a
// number, otherwise whatever encoding/json makes of the float64. The
// golden test holds the hand-rolled Bounds and Bound encoders to it.
type jsonBound float64

func (b jsonBound) MarshalJSON() ([]byte, error) {
	if f := float64(b); math.IsInf(f, 0) || math.IsNaN(f) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(b))
}

// TestBoundsMatchEncodingJSON is the golden test of the one-call vector
// marshaler: over the format's edge cases and 10,000 random bit patterns,
// a Bounds renders byte for byte like the per-element encoding it
// replaces, compact and indented, as a field and with omitempty.
func TestBoundsMatchEncodingJSON(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20, -1e21, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, 0.1, 1.5, 123456789.125, 1e-9, 1e100}
	rng := rand.New(rand.NewSource(1))
	for len(fs) < 10000 {
		fs = append(fs, math.Float64frombits(rng.Uint64()), rng.NormFloat64(), rng.ExpFloat64()*1e-3)
	}
	type reply[V any] struct {
		Bounds   V         `json:"bounds"`
		Backlogs V         `json:"backlogs,omitempty"`
		Max      jsonBound `json:"max_bound"`
	}
	encode := func(v any, indent bool) string {
		t.Helper()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if indent {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, vec := range [][]float64{fs, fs[:1], {}, nil} {
		old := make([]jsonBound, len(vec))
		for i, f := range vec {
			old[i] = jsonBound(f)
		}
		for _, indent := range []bool{false, true} {
			want := encode(reply[[]jsonBound]{Bounds: old, Backlogs: old}, indent)
			got := encode(reply[Bounds]{Bounds: vec, Backlogs: vec}, indent)
			if got != want {
				t.Fatalf("%d bounds, indent %v: Bounds and the per-element encoding differ:\n got %.200s\nwant %.200s", len(vec), indent, got, want)
			}
		}
	}
	for _, f := range fs {
		got, _ := json.Marshal(Bound(f))
		want, _ := json.Marshal(jsonBound(f))
		if string(got) != string(want) {
			t.Fatalf("Bound(%v) renders %s, encoding/json %s", f, got, want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	r := &analysis.Result{Algorithm: "x"}
	c.Put("a", r)
	c.Put("b", r)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a evicted early")
	}
	c.Put("c", r)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats: %d hits %d misses", hits, misses)
	}

	// Disabled cache never stores.
	d := NewCache(0)
	d.Put("k", r)
	if _, ok := d.Get("k"); ok || d.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestPickAnalyzerRegistry(t *testing.T) {
	if got, want := AnalyzerNames(), []string{"decomposed", "gr", "integrated", "servicecurve"}; !slices.Equal(got, want) {
		t.Errorf("AnalyzerNames() = %v, want %v", got, want)
	}
	for _, name := range AnalyzerNames() {
		if _, err := PickAnalyzer(name); err != nil {
			t.Errorf("canonical name %q not resolvable: %v", name, err)
		}
	}
	cases := map[string]string{
		"integrated":   "Integrated",
		"INT":          "Integrated",
		"decomposed":   "Decomposed",
		"dec":          "Decomposed",
		"servicecurve": "ServiceCurve",
		"sc":           "ServiceCurve",
		"gr":           "GuaranteedRate/NetworkServiceCurve",
		"integratedsp": "Integrated",
		"sp":           "Integrated",
		" Integrated ": "Integrated",
	}
	for in, want := range cases {
		a, err := PickAnalyzer(in)
		if err != nil {
			t.Errorf("PickAnalyzer(%q): %v", in, err)
			continue
		}
		if a.Name() != want {
			t.Errorf("PickAnalyzer(%q) = %s, want %s", in, a.Name(), want)
		}
	}
	for _, unknown := range []string{"nope", "fifo", ""} {
		if _, err := PickAnalyzer(unknown); err == nil {
			t.Errorf("PickAnalyzer(%q): unknown name must error", unknown)
		}
	}
}
