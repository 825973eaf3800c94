package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	a, r, b, err := parseMix("6:3:1")
	if err != nil || a != 6 || r != 3 || b != 1 {
		t.Fatalf("6:3:1 -> %d %d %d %v", a, r, b, err)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "-1:2:3", "x:2:3", "0:0:0"} {
		if _, _, _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%v = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

// TestRunInProcess drives a short closed loop and one open-loop rate point
// against the self-started daemon and checks the report lands on disk with
// both sections.
func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "report.json")
	cfg := &config{
		self:         4,
		duration:     500 * time.Millisecond,
		concurrency:  2,
		mix:          "6:3:1",
		seed:         1,
		rho:          0.002,
		deadline:     100,
		out:          out,
		openRates:    "20",
		arrival:      "poisson",
		openDuration: 500 * time.Millisecond,
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.TotalOps == 0 || rep.Throughput <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	admit, ok := rep.Ops["admit"]
	if !ok || admit.Count == 0 || admit.P99Ms <= 0 {
		t.Fatalf("no admit samples: %+v", rep.Ops)
	}
	if admit.Errors != 0 {
		t.Fatalf("admit errors: %+v", admit)
	}
	if len(rep.EngineStats) == 0 {
		t.Fatal("report is missing the daemon's stats document")
	}
	if rep.OpenLoop == nil || len(rep.OpenLoop.Points) != 1 {
		t.Fatalf("want one open-loop point, got %+v", rep.OpenLoop)
	}
	if pt := rep.OpenLoop.Points[0]; pt.TargetRate != 20 || pt.Scheduled == 0 ||
		pt.Completed != pt.Scheduled || pt.Errors != 0 || pt.P50Ms <= 0 {
		t.Fatalf("open-loop point: %+v", pt)
	}
	for _, want := range []string{"p99 ms", "rate=20", "report written"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary output is missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunFailingDaemon checks the one judgement delayload still makes: a
// daemon answering 5xx fails the run.
func TestRunFailingDaemon(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cfg := &config{
		target: srv.URL, servers: "s0,s1",
		duration: 50 * time.Millisecond, concurrency: 1, mix: "1:1:1", seed: 1,
	}
	err := run(cfg, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "operations failed") {
		t.Fatalf("run against a 503 daemon returned %v, want failed operations", err)
	}
}

// TestRunValidation covers the argument errors.
func TestRunValidation(t *testing.T) {
	base := config{self: 4, duration: time.Second, concurrency: 1, mix: "1:1:1"}
	cases := []func(*config){
		func(c *config) { c.mix = "nope" },
		func(c *config) { c.concurrency = 0 },
		func(c *config) { c.duration = 0 },
		func(c *config) { c.self = 0 },
		func(c *config) { c.target = "http://127.0.0.1:1"; c.servers = "" },
		func(c *config) { c.duration = 10 * time.Millisecond; c.openRates = "0" },
		func(c *config) { c.duration = 10 * time.Millisecond; c.openRates = "50"; c.arrival = "bursty" },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := run(&cfg, &bytes.Buffer{}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestParseFlags pins the defaults an operator relies on (nothing is
// written unless asked) and that the flags of the removed gate modes are
// rejected, not silently ignored.
func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-self", "8", "-open-rates", "50"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.out != "" || cfg.openCSV != "" {
		t.Errorf("default run would write files: out %q, open-csv %q", cfg.out, cfg.openCSV)
	}
	if cfg.self != 8 || cfg.openRates != "50" || cfg.arrival != "poisson" || cfg.mix != "6:3:1" {
		t.Errorf("parsed config: %+v", cfg)
	}
	for _, gate := range []string{"batch", "scaling", "release-factor"} {
		var usage bytes.Buffer
		name := "-gate-" + gate
		if _, err := parseFlags([]string{name, "3"}, &usage); err == nil {
			t.Errorf("removed flag %s accepted", name)
		} else if !strings.Contains(usage.String(), "flag provided but not defined: "+name) {
			t.Errorf("%s: unexpected rejection: %v\n%s", name, err, usage.String())
		}
	}
}
