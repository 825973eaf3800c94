package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// TestRetiredSpellings pins the removal of the deprecated surface: every
// /v1 and pre-versioning spelling (and the admit-only batch) now answers
// the JSON 404 envelope like any unknown path, with no Deprecation header,
// and the route table registers nothing outside /v2/.
func TestRetiredSpellings(t *testing.T) {
	srv := newTestServer(t, nil)
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/connections", admitBody},
		{"POST", "/v1/admit", admitBody},
		{"GET", "/v1/connections", ""},
		{"DELETE", "/v1/connections/video", ""},
		{"POST", "/v1/batch", `{"operations": []}`},
		{"POST", "/v1/admit/batch", `{"connections": [` + connectionOf(admitBody) + `]}`},
		{"GET", "/v1/stats", ""},
		{"POST", "/v1/analyze", analyzeBody},
		{"GET", "/v1/metrics", ""},
		{"GET", "/v1/healthz", ""},
		{"POST", "/admit", admitBody},
		{"POST", "/connections", admitBody},
		{"GET", "/connections", ""},
		{"DELETE", "/connections/video", ""},
		{"POST", "/analyze", analyzeBody},
		{"GET", "/metrics", ""},
		{"GET", "/healthz", ""},
	} {
		w := do(t, srv, c.method, c.path, c.body)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s: want 404, got %d %s", c.method, c.path, w.Code, w.Body)
			continue
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeNotFound || env.Error.Message == "" {
			t.Errorf("%s %s: want the %q envelope, got %s", c.method, c.path, CodeNotFound, w.Body)
		}
		if w.Header().Get("Deprecation") != "" || w.Header().Get("Link") != "" {
			t.Errorf("%s %s: retired spelling still answers deprecation headers", c.method, c.path)
		}
	}
	if srv.State().Count() != 0 {
		t.Fatalf("a retired spelling admitted: count %d", srv.State().Count())
	}
	for _, rt := range srv.routes() {
		if rt.global && !strings.HasPrefix(rt.suffix, "/v2/") {
			t.Errorf("global route %s %s is registered outside /v2/", rt.method, rt.suffix)
		}
		if !rt.global && !strings.HasPrefix(rt.suffix, "/") {
			t.Errorf("scoped route %s %q does not extend /v2/networks/{netid}", rt.method, rt.suffix)
		}
	}
}

// TestMetricsLabelIsTenantIndependent pins the cardinality contract:
// requests are counted under the route's label with a literal {netid}
// placeholder, never under the concrete path.
func TestMetricsLabelIsTenantIndependent(t *testing.T) {
	srv := newTestServer(t, nil)
	do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	do(t, srv, "POST", "/v2/networks/default/connections", strings.Replace(admitBody, `"video"`, `"x"`, 1))
	if n := srv.Metrics().RequestCount(epAdmit, http.StatusOK); n != 2 {
		t.Fatalf("route label count %d, want 2", n)
	}
	if n := srv.Metrics().RequestCount("POST /v2/networks/default/connections", http.StatusOK); n != 0 {
		t.Fatalf("concrete path leaked its own metrics label (%d)", n)
	}
}

// TestErrorEnvelopeCodes asserts the error envelope shape
// {"error":{"code","message"}} and the stable code for every failure mode.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 512 })
	cases := []struct {
		label, method, path, body string
		status                    int
		code                      string
	}{
		{"malformed JSON", "POST", "/v2/networks/default/connections", `{"connection": `, http.StatusBadRequest, CodeInvalidSpec},
		{"unknown server", "POST", "/v2/networks/default/connections",
			`{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["nope"], "deadline": 5}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"no deadline", "POST", "/v2/networks/default/connections",
			`{"connection": {"name": "x", "sigma": 1, "rho": 0.1, "path": ["s0"]}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"no name", "POST", "/v2/networks/default/connections",
			`{"connection": {"sigma": 1, "rho": 0.1, "path": ["s0"], "deadline": 5}}`,
			http.StatusBadRequest, CodeInvalidSpec},
		{"unknown analyzer", "POST", "/v2/networks/default/analyze",
			strings.Replace(analyzeBody, `"integrated"`, `"quantum"`, 1),
			http.StatusBadRequest, CodeUnknownAnalyzer},
		{"remove missing", "DELETE", "/v2/networks/default/connections/ghost", "", http.StatusNotFound, CodeNotFound},
		{"oversized body", "POST", "/v2/networks/default/connections",
			`{"connection": {"name": "` + strings.Repeat("x", 600) + `"}}`,
			http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, c := range cases {
		w := do(t, srv, c.method, c.path, c.body)
		if w.Code != c.status {
			t.Errorf("%s: want %d, got %d %s", c.label, c.status, w.Code, w.Body)
			continue
		}
		env := decode[errorResponse](t, w)
		if env.Error.Code != c.code {
			t.Errorf("%s: want code %q, got %q (%s)", c.label, c.code, env.Error.Code, w.Body)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", c.label)
		}
	}
}

// TestErrorEnvelopeTimeout pins the shed envelope on every timed endpoint:
// a passed hard deadline answers 503 + Retry-After with the timeout code.
func TestErrorEnvelopeTimeout(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	for _, c := range []struct{ path, body string }{
		{"/v2/networks/default/analyze", analyzeBody},
		{"/v2/networks/default/connections", admitBody},
		{"/v2/networks/default/batch", `{"operations": [{"op": "admit", "connection": ` + connectionOf(admitBody) + `}]}`},
	} {
		w := do(t, srv, "POST", c.path, c.body)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: want 503, got %d %s", c.path, w.Code, w.Body)
		}
		if got := w.Header().Get("Retry-After"); got == "" {
			t.Fatalf("%s: shed response missing Retry-After header", c.path)
		}
		if env := decode[errorResponse](t, w); env.Error.Code != CodeTimeout {
			t.Fatalf("%s: want code %q, got %s", c.path, CodeTimeout, w.Body)
		}
	}
}

// connectionOf extracts the connection object from an AdmitRequest body.
func connectionOf(admitBody string) string {
	s := strings.TrimPrefix(admitBody, `{"connection": `)
	return strings.TrimSuffix(s, `}`)
}

// TestAdmitRejectionCarriesCodeAndViolations checks the structured
// rejection contract on the 200-level decision body: stable code plus the
// violating connection with bound and deadline as fields, not prose.
func TestAdmitRejectionCarriesCodeAndViolations(t *testing.T) {
	srv := newTestServer(t, nil)
	tight := strings.Replace(admitBody, `"deadline": 20`, `"deadline": 0.001`, 1)
	tight = strings.Replace(tight, `"access_rate": 1, `, "", 1)
	w := do(t, srv, "POST", "/v2/networks/default/connections", tight)
	resp := decode[AdmitResponse](t, w)
	if w.Code != http.StatusOK || resp.Admitted {
		t.Fatalf("want clean rejection, got %d %+v", w.Code, resp)
	}
	if resp.Code != CodeDeadlineMissed {
		t.Fatalf("want code %q, got %q", CodeDeadlineMissed, resp.Code)
	}
	if len(resp.Violations) == 0 {
		t.Fatal("rejection carries no violations")
	}
	v := resp.Violations[0]
	if v.Connection != "video" || v.Deadline != 0.001 || float64(v.Bound) <= v.Deadline {
		t.Fatalf("violation not structured: %+v", v)
	}

	// Unstable trials carry their own code.
	unstable := strings.Replace(admitBody, `"rho": 0.02`, `"rho": 1.5`, 1)
	unstable = strings.Replace(unstable, `"access_rate": 1, `, "", 1)
	w = do(t, srv, "POST", "/v2/networks/default/connections", unstable)
	resp = decode[AdmitResponse](t, w)
	if w.Code != http.StatusOK || resp.Admitted || resp.Code != CodeUnstable {
		t.Fatalf("want unstable rejection, got %d %+v", w.Code, resp)
	}
}

// fullOnly is an analyzer whose baseline build fails, which drives the
// engine's one fallback, the full path.
type fullOnly struct{ analysis.Analyzer }

func (fullOnly) NewBaseline(*topo.Network) (*analysis.Baseline, error) {
	return nil, errors.New("fullOnly: no baseline")
}

// TestEngineMetricsExposed checks the new admission-engine series on the
// canonical metrics route. The incremental gauge is always 1, since every
// analyzer is incremental; the test counters tell which path ran, and an
// analyzer whose baseline build fails (fullOnly) runs every test in full.
func TestEngineMetricsExposed(t *testing.T) {
	srv := newTestServer(t, nil)
	do(t, srv, "POST", "/v2/networks/default/connections", admitBody)
	do(t, srv, "POST", "/v2/networks/default/connections", strings.Replace(admitBody, `"video"`, `"v2"`, 1))
	w := do(t, srv, "GET", "/v2/networks/default/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`delayd_admission_incremental_enabled 1`,
		`delayd_admission_tests_total{mode="incremental"}`,
		`delayd_admission_tests_total{mode="full"} 0`,
		`delayd_admission_commit_conflicts_total 0`,
		`delayd_admission_affected_connections_count 2`,
		`delayd_admission_affected_connections_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	state, err := NewState(testFabric(), fullOnly{analysis.ServiceCurve{}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewServer(Config{State: state})
	if err != nil {
		t.Fatal(err)
	}
	do(t, sc, "POST", "/v2/networks/default/connections", admitBody)
	body = do(t, sc, "GET", "/v2/networks/default/metrics", "").Body.String()
	for _, want := range []string{
		`delayd_admission_incremental_enabled 1`,
		`delayd_admission_tests_total{mode="incremental"} 0`,
		`delayd_admission_tests_total{mode="full"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("full-path metrics missing %q\n%s", want, body)
		}
	}
}

// TestSPAnalyzeFillsStageTimings pins that a static-priority analysis runs
// on the shared chain driver, which reads analysis.Timings: the stage
// histograms must gain time, not just samples (the separate SP engine never
// looked at the collector, so _count grew while _sum stayed 0).
func TestSPAnalyzeFillsStageTimings(t *testing.T) {
	srv := newTestServer(t, nil)
	body := `{"analyzer": "integratedsp", "network": {
  "servers": [{"name": "s0", "capacity": 1, "discipline": "sp"}, {"name": "s1", "capacity": 1, "discipline": "sp"}],
  "connections": [
    {"name": "urgent", "sigma": 1, "rho": 0.1, "path": ["s0", "s1"]},
    {"name": "bulk", "sigma": 1, "rho": 0.1, "priority": 1, "path": ["s0", "s1"]},
    {"name": "cross", "sigma": 1, "rho": 0.1, "priority": 1, "path": ["s1"]}]}}`
	if w := do(t, srv, "POST", "/v2/networks/default/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	metrics := do(t, srv, "GET", "/v2/networks/default/metrics", "").Body.String()
	sample := func(series string) float64 { return sampleMetric(t, metrics, series) }
	for _, stage := range []string{"aggregate", "theta"} {
		series := fmt.Sprintf("delayd_analysis_stage_seconds_sum{stage=%q}", stage)
		if sum := sample(series); sum <= 0 {
			t.Errorf("%s = %v after a static-priority analyze, want > 0", series, sum)
		}
	}
	// The run's two-server searches report their pair counts: some pair
	// was evaluated, and the lower bound pruned most of the grid.
	evaluated := sample(`delayd_analysis_theta_pairs_total{outcome="evaluated"}`)
	pruned := sample(`delayd_analysis_theta_pairs_total{outcome="pruned"}`)
	if evaluated < 1 || pruned <= evaluated {
		t.Errorf("theta pairs evaluated / pruned = %v / %v, want at least one evaluated and more pruned", evaluated, pruned)
	}
}

// TestThetaBranchMetricsExposed runs admissions on an engine whose analyzer
// searches three servers at once and reads the closed-form branch counter
// back: some branch evaluated, some cut, the series documented.
func TestThetaBranchMetricsExposed(t *testing.T) {
	fabric := append(testFabric(), server.Server{Name: "s2", Capacity: 1, Discipline: server.FIFO})
	state, err := NewState(fabric, analysis.Integrated{ChainLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{State: state})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Replace(admitBody, `["s0", "s1"]`, `["s0", "s1", "s2"]`, 1)
	for _, body := range []string{long, strings.Replace(long, `"video"`, `"v2"`, 1), strings.Replace(admitBody, `"video"`, `"cross"`, 1)} {
		if w := do(t, srv, "POST", "/v2/networks/default/connections", body); w.Code != http.StatusOK {
			t.Fatalf("admit: %d %s", w.Code, w.Body)
		}
	}
	metrics := do(t, srv, "GET", "/v2/networks/default/metrics", "").Body.String()
	if !strings.Contains(metrics, "# HELP delayd_analysis_theta_branches_total ") {
		t.Errorf("metrics carry no HELP line for the branch counter\n%s", metrics)
	}
	evaluated := sampleMetric(t, metrics, `delayd_analysis_theta_branches_total{outcome="evaluated"}`)
	cut := sampleMetric(t, metrics, `delayd_analysis_theta_branches_total{outcome="cut"}`)
	if evaluated < 1 || cut < 1 {
		t.Errorf("closed-form branches evaluated / cut = %v / %v, want some of each", evaluated, cut)
	}
}

// sampleMetric reads one series' value out of a metrics exposition.
func sampleMetric(t *testing.T, metrics, series string) float64 {
	t.Helper()
	_, rest, ok := strings.Cut(metrics, series+" ")
	if !ok {
		t.Fatalf("metrics missing %q\n%s", series, metrics)
	}
	line, _, _ := strings.Cut(rest, "\n")
	v, err := strconv.ParseFloat(line, 64)
	if err != nil {
		t.Fatalf("%s = %q: %v", series, line, err)
	}
	return v
}
