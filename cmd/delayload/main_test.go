package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("6:3:1")
	if err != nil || w != [3]int{6, 3, 1} {
		t.Fatalf("6:3:1 -> %v %v", w, err)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "-1:2:3", "x:2:3", "0:0:0"} {
		if _, err := parseMix(bad); err == nil {
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

// mustParse builds a configuration from command-line arguments, defaults
// included.
func mustParse(t *testing.T, args ...string) *config {
	t.Helper()
	cfg, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return cfg
}

// TestRunInProcess drives a short closed-loop window and one open-loop rate
// point against the self-started daemon, both through the one request
// layer, and checks both summaries.
func TestRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	cfg := mustParse(t, "-self", "4", "-duration", "500ms", "-concurrency", "2", "-open-rates", "20")
	var buf bytes.Buffer
	res, err := run(cfg, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	admit, ok := res.closed["admit"]
	if !ok || admit.count == 0 || admit.p99 <= 0 || admit.errors != 0 {
		t.Fatalf("admit class: %+v", res.closed)
	}
	for _, class := range []string{"release", "batch"} {
		if st := res.closed[class]; st.count == 0 || st.errors != 0 {
			t.Errorf("%s class: %+v", class, st)
		}
	}
	if len(res.open) != 1 {
		t.Fatalf("want one open-loop point, got %+v", res.open)
	}
	if pt := res.open[0]; pt.rate != 20 || pt.scheduled == 0 || pt.count != pt.scheduled || pt.errors != 0 || pt.p50 <= 0 {
		t.Fatalf("open-loop point: %+v", pt)
	}
	for _, want := range []string{"p99 ms", "rejected", "rate=20"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary output is missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunRejectionsAreNotFailures runs both loops with a deadline of 1e-9,
// which no connection that shares a server can meet: every loop counts
// rejections, none of them as a failed operation, and the run succeeds.
func TestRunRejectionsAreNotFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("load run skipped in -short mode")
	}
	cfg := mustParse(t, "-self", "4", "-duration", "300ms", "-concurrency", "2", "-deadline", "1e-9", "-open-rates", "40")
	var buf bytes.Buffer
	res, err := run(cfg, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	rejected := 0
	for class, st := range res.closed {
		rejected += st.rejected
		if st.errors != 0 {
			t.Errorf("closed loop %s: %d errors", class, st.errors)
		}
	}
	if rejected == 0 {
		t.Errorf("closed loop rejected nothing: %+v", res.closed)
	}
	if pt := res.open[0]; pt.rejected == 0 || pt.errors != 0 {
		t.Errorf("open-loop point: %d rejected, %d errors", pt.rejected, pt.errors)
	}
}

// TestRunFailingDaemon checks the one judgement delayload makes: a daemon
// answering 5xx fails the run, in the closed loop and in the open loop.
func TestRunFailingDaemon(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cfg := mustParse(t, "-target", srv.URL, "-servers", "s0,s1", "-duration", "50ms",
		"-concurrency", "1", "-mix", "1:1:1", "-open-rates", "100")
	res, err := run(cfg, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "operations failed") || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("run against a 503 daemon returned %v, want failed operations", err)
	}
	if pt := res.open[0]; pt.errors == 0 || pt.count != 0 {
		t.Fatalf("open-loop point against a 503 daemon: %+v", pt)
	}
}

// TestRunValidation covers the argument errors.
func TestRunValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-mix", "nope"}, io.Discard); err == nil {
		t.Error("-mix nope accepted")
	}
	for i, args := range [][]string{
		{"-concurrency", "0"},
		{"-duration", "0s"},
		{"-self", "0"},
		{"-target", "http://127.0.0.1:1"},
		{"-duration", "10ms", "-open-rates", "0"},
		{"-duration", "10ms", "-analyzer", "quantum"},
	} {
		if _, err := run(mustParse(t, args...), &bytes.Buffer{}); err == nil {
			t.Errorf("case %d %v: invalid config accepted", i, args)
		}
	}
}

// TestParseFlags pins the defaults an operator relies on and that every
// removed flag is refused, not silently ignored.
func TestParseFlags(t *testing.T) {
	cfg := mustParse(t, "-self", "8", "-open-rates", "50")
	if cfg.self != 8 || cfg.openRates != "50" || cfg.weights != [3]int{6, 3, 1} || cfg.analyzer != "integrated" ||
		cfg.duration != 10*time.Second || cfg.network != "default" {
		t.Errorf("parsed config: %+v", cfg)
	}
	for _, name := range []string{"-out", "-open-csv", "-open-duration", "-rate", "-arrival",
		"-gate-batch", "-gate-scaling", "-gate-release-factor"} {
		var usage bytes.Buffer
		if _, err := parseFlags([]string{name, "3"}, &usage); err == nil {
			t.Errorf("removed flag %s accepted", name)
		} else if !strings.Contains(usage.String(), "flag provided but not defined: "+name) {
			t.Errorf("%s: unexpected rejection: %v\n%s", name, err, usage.String())
		}
	}
}
