package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tiny is the scale the tests run the workloads at: a few hundred
// operations, small networks, one round.
const tiny = 0.05

// TestWorkloadsAtTinyScale runs every workload, timed and traced, and
// requires its output checks to pass and every declared metric to be
// reported, so that a change to an API the benchmark uses fails here
// before it fails in a benchmark run.
func TestWorkloadsAtTinyScale(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 0, tiny, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, c := range res.checks {
				t.Errorf("%s traced=%v: check failed: %s", w.name, traced, c)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.failed, res.attempted)
			}
			for _, m := range res.declared() {
				v, ok := res.metrics[m.Name]
				if !ok && !traced {
					t.Errorf("%s: end-to-end metric %s not reported", w.name, m.Name)
				}
				if !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want it positive", w.name, m.Name, v)
				}
			}
			if !traced {
				continue
			}
			var out bytes.Buffer
			res.print(&out, "")
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct bool
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if len(line.Metrics) != len(perLayer) || !line.Correct {
				t.Errorf("%s: traced result has %d metrics (want %d), correct=%v", w.name, len(line.Metrics), len(perLayer), line.Correct)
			}
			spans := res.tr.has("service") || res.tr.has("admission")
			if w.name == "analyze-full" && spans {
				t.Errorf("analyze-full recorded service or admission spans")
			}
			if w.name != "analyze-full" && !(spans && res.tr.has("analysis")) {
				t.Errorf("%s: the traced run recorded no service, admission or analysis span", w.name)
			}
		}
	}
}

// TestCountsRepeat: with the same seed the operation sequence, the
// decisions and the engine's exact counts repeat; another seed gives
// another sequence.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"serve-churn", "shard-churn"} {
		w := findWorkload(name)
		var runs []*result
		for _, seed := range []int64{7, 7, 8} {
			res, err := runWorkload(w, seed, 0, tiny, false)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
		}
		a, b, other := runs[0], runs[1], runs[2]
		if a.opHash != b.opHash || a.digest != b.digest {
			t.Errorf("%s: seed 7 gave ops %x bounds %x, then ops %x bounds %x", name, a.opHash, a.digest, b.opHash, b.digest)
		}
		for _, c := range []string{"admission.commits", "admission.admitted_final", "admission.reject_ratio",
			"load.admit_ops", "load.release_ops", "load.batch_ops"} {
			if a.counts[c] != b.counts[c] {
				t.Errorf("%s: %s was %g, then %g", name, c, a.counts[c], b.counts[c])
			}
		}
		if a.opHash == other.opHash {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// TestBenchmarkJSON: the committed BENCHMARK.json is what -spec prints,
// and it stays inside the limits its schema sets.
func TestBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the schema", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s has %d characters", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the schema", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s is missing")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the schema", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
