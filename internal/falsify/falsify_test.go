package falsify

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/sim"
)

func smallMatrix(t *testing.T, names string) []Scenario {
	t.Helper()
	all, err := DefaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	m := FilterMatrix(all, names)
	if len(m) == 0 {
		t.Fatalf("filter %q matched nothing", names)
	}
	return m
}

func smallOptions(seed int64) Options {
	return Options{
		Seed:        seed,
		Restarts:    2,
		Iterations:  6,
		PacketSizes: []float64{0.05},
	}
}

func TestDefaultMatrixScenariosAnalyzable(t *testing.T) {
	matrix, err := DefaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) < 6 {
		t.Fatalf("matrix has only %d scenarios", len(matrix))
	}
	seen := map[string]bool{}
	for _, sc := range matrix {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.Net.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if !sc.Net.Stable() {
			t.Errorf("%s: unstable network in matrix", sc.Name)
		}
		if !sc.Net.IsFeedforward() {
			t.Errorf("%s: matrix scenario is not feedforward", sc.Name)
		}
		if sc.Spread <= 0 {
			t.Errorf("%s: non-positive spread", sc.Name)
		}
	}
}

func TestSearchDeterministicAcrossRuns(t *testing.T) {
	matrix := smallMatrix(t, "tandem2-u50,parkinglot")
	analyzers := []analysis.Analyzer{analysis.Decomposed{}, analysis.Integrated{}}
	r1, err := Search(context.Background(), matrix, analyzers, smallOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	// Second run with higher parallelism must not change a byte.
	opts := smallOptions(11)
	opts.Parallelism = 8
	r2, err := Search(context.Background(), matrix, analyzers, opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("same seed produced different reports:\n%s\nvs\n%s", j1, j2)
	}
	// A different seed explores differently (controls differ even if the
	// headline ratios agree).
	r3, err := Search(context.Background(), matrix, analyzers, smallOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Results, r3.Results) {
		t.Log("warning: different seeds produced identical results (possible but unlikely)")
	}
}

// TestSoundBoundsSurviveAndAreLoose attacks Decomposed, Integrated's pairs
// and its chains of four; the randomized mesh has routes that a chain of
// four could once skip a position of.
func TestSoundBoundsSurviveAndAreLoose(t *testing.T) {
	matrix := smallMatrix(t, "parkinglot,tandem2,burstycross2,randff-s1")
	analyzers := []analysis.Analyzer{analysis.Decomposed{}, analysis.Integrated{}, analysis.Integrated{ChainLength: 4}}
	rep, err := Search(context.Background(), matrix, analyzers, smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Contradictions) != 0 {
		t.Fatalf("sound analyzers contradicted: %+v", rep.Contradictions)
	}
	if got, want := len(rep.Results), len(matrix)*len(analyzers); got != want {
		t.Fatalf("got %d results, want %d", got, want)
	}
	for _, res := range rep.Results {
		if res.Unbounded {
			t.Errorf("%s/%s: unexpectedly unbounded", res.Scenario, res.Analyzer)
			continue
		}
		if res.Tightness <= 0 || res.Tightness >= 1 {
			t.Errorf("%s/%s: tightness %g outside (0, 1)", res.Scenario, res.Analyzer, res.Tightness)
		}
		if res.Trials == 0 {
			t.Errorf("%s/%s: no trials recorded", res.Scenario, res.Analyzer)
		}
		if res.Bound <= 0 || res.Observed <= 0 {
			t.Errorf("%s/%s: degenerate bound %g / observed %g", res.Scenario, res.Analyzer, res.Bound, res.Observed)
		}
	}
	// Results must be ranked loosest-first.
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i].Tightness < rep.Results[i-1].Tightness {
			t.Fatalf("results not ranked: %g before %g", rep.Results[i-1].Tightness, rep.Results[i].Tightness)
		}
	}
}

// TestStaggeredStartTimesBurstsToTheTaggedRoute pins the second start on
// burstycross2: the two-hop connection is tagged, the first cross source
// starts with it, and the second is released after the tagged connection's
// Decomposed first-hop delay, the 6 units its own and X1's bursts take to
// clear the first server.
func TestStaggeredStartTimesBurstsToTheTaggedRoute(t *testing.T) {
	sc := smallMatrix(t, "burstycross2")[0]
	got := staggeredStart(sc)
	want := []sim.SourceControl{{}, {}, {Phase: 6}}
	if len(got) != len(want) {
		t.Fatalf("%d controls for %d connections", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Phase-want[i].Phase) > 1e-9 || got[i].BurstDelay != 0 || got[i].Pace {
			t.Errorf("control %d (%s) = %+v, want %+v", i, sc.Net.Connections[i].Name, got[i], want[i])
		}
	}
}

func TestCorruptedBoundYieldsReplayableContradiction(t *testing.T) {
	matrix := smallMatrix(t, "tandem2-u80")
	opts := smallOptions(9)
	opts.BoundScale = 0.3 // test-only corruption: shrink every bound by 70%
	rep, err := Search(context.Background(), matrix, []analysis.Analyzer{analysis.Decomposed{}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Contradictions) == 0 {
		t.Fatal("corrupted bounds produced no contradiction")
	}
	c := rep.Contradictions[0]
	if c.Spec == nil || len(c.Spec.Servers) == 0 {
		t.Fatal("contradiction carries no topology spec")
	}
	if c.Seed != opts.Seed {
		t.Fatalf("contradiction seed %d, want %d", c.Seed, opts.Seed)
	}
	if c.Observed <= c.Bound+c.Slack {
		t.Fatalf("recorded observation %g does not exceed bound %g + slack %g", c.Observed, c.Bound, c.Slack)
	}
	// The contradiction must replay from its own spec alone, exactly.
	out, err := Replay(&c)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Violates {
		t.Fatalf("replay does not violate: observed %g, bound %g + slack %g", out.Observed, c.Bound, c.Slack)
	}
	if !out.Matches {
		t.Fatalf("replay observed %g, recorded %g", out.Observed, c.Observed)
	}
	// A contradiction must survive a JSON round trip (the report file is
	// the transport between the finder and the replayer).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	out2, err := Replay(&decoded.Contradictions[0])
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Violates || !out2.Matches {
		t.Fatal("decoded contradiction did not replay identically")
	}
}

func TestSearchHonorsCancellation(t *testing.T) {
	matrix := smallMatrix(t, "tandem")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: every unit must bail out quickly
	opts := smallOptions(1)
	opts.Iterations = 1000
	opts.Restarts = 1000
	start := time.Now()
	rep, err := Search(ctx, matrix, []analysis.Analyzer{analysis.Integrated{}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("cancelled search ran for too long")
	}
	for _, res := range rep.Results {
		if !res.Truncated {
			t.Errorf("%s/%s: cancelled unit not marked truncated", res.Scenario, res.Analyzer)
		}
	}
}

func TestFilterMatrix(t *testing.T) {
	all, err := DefaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if got := FilterMatrix(all, ""); len(got) != len(all) {
		t.Fatalf("empty filter dropped scenarios: %d vs %d", len(got), len(all))
	}
	tandems := FilterMatrix(all, "tandem")
	if len(tandems) == 0 {
		t.Fatal("tandem filter matched nothing")
	}
	for _, sc := range tandems {
		if got := sc.Name[:6]; got != "tandem" {
			t.Fatalf("filter leaked scenario %q", sc.Name)
		}
	}
	if got := FilterMatrix(all, "tandem2-u50,star4"); len(got) != 2 {
		t.Fatalf("compound filter matched %d scenarios", len(got))
	}
}
