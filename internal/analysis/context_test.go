package analysis

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"delaycalc/internal/topo"
)

// contextAnalyzers pairs each analyzer with a network it applies
// to: every analyzer runs over net, and Integrated also over a
// static-priority tandem of its own.
func contextAnalyzers(net *topo.Network) map[string]struct {
	a   Analyzer
	net *topo.Network
} {
	return map[string]struct {
		a   Analyzer
		net *topo.Network
	}{
		"decomposed":    {Decomposed{}, net},
		"integrated":    {Integrated{}, net},
		"integrated-L3": {Integrated{ChainLength: 3}, net},
		"integrated-sp": {Integrated{}, spTandem(4, 0.6)},
	}
}

// TestAnalyzeContextMatchesAnalyze pins that an uncancelled context changes
// nothing: AnalyzeContext(Background) must be bitwise identical to Analyze,
// because every cancellation checkpoint falls through to the same
// computation.
func TestAnalyzeContextMatchesAnalyze(t *testing.T) {
	for name, net := range differentialCorpus(t) {
		for aname, tc := range contextAnalyzers(net) {
			want, err := tc.a.Analyze(tc.net)
			if err != nil {
				t.Fatalf("%s/%s: Analyze: %v", name, aname, err)
			}
			got, err := tc.a.AnalyzeContext(context.Background(), tc.net)
			if err != nil {
				t.Fatalf("%s/%s: AnalyzeContext: %v", name, aname, err)
			}
			for i := range want.Bounds {
				if got.Bounds[i] != want.Bounds[i] {
					t.Errorf("%s/%s: conn %d AnalyzeContext bound %v != Analyze %v",
						name, aname, i, got.Bounds[i], want.Bounds[i])
				}
			}
			for s := range want.Backlogs {
				if got.Backlogs[s] != want.Backlogs[s] {
					t.Errorf("%s/%s: server %d AnalyzeContext backlog %v != Analyze %v",
						name, aname, s, got.Backlogs[s], want.Backlogs[s])
				}
			}
		}
	}
}

// TestDecomposedDominatesIntegrated is the soundness argument behind the
// serving layer's degradation policy: on every corpus network the
// decomposed (Cruz) bound must dominate the integrated bound per
// connection, so answering with the decomposed bound under time pressure
// can only ever be conservative.
func TestDecomposedDominatesIntegrated(t *testing.T) {
	const tol = 1e-9
	for name, net := range differentialCorpus(t) {
		dec, err := Decomposed{}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: decomposed: %v", name, err)
		}
		integ, err := Integrated{}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: integrated: %v", name, err)
		}
		for i := range dec.Bounds {
			d, g := dec.Bounds[i], integ.Bounds[i]
			// An unbounded decomposed connection dominates trivially; an
			// unbounded integrated connection with a finite decomposed
			// bound would break the fallback's soundness.
			if d+tol*(1+d) < g {
				t.Errorf("%s: conn %d decomposed bound %v below integrated %v — degraded answer would be unsound",
					name, i, d, g)
			}
		}
	}
}

// TestAnalyzeContextCancelled pins the cancellation contract: a cancelled
// context yields a wrapped context error (never a silent partial result)
// and the level-parallel workers exit, leaving no goroutines behind.
func TestAnalyzeContextCancelled(t *testing.T) {
	net, err := topo.RandomFeedforward(10, 16, 0.65, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for aname, tc := range contextAnalyzers(net) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := tc.a.AnalyzeContext(ctx, tc.net)
		if err == nil {
			t.Fatalf("%s: cancelled AnalyzeContext returned %v, want error", aname, res)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled AnalyzeContext error %v does not wrap context.Canceled", aname, err)
		}
	}
	// The two-server pair sweep, reached directly (a cancelled analysis
	// stops before its first search): it checks the context per evaluated
	// pair, so an already-cancelled one buys at most one evaluation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := randomPairScenario(rand.New(rand.NewSource(7)))
	_, tm := WithTimings(ctx)
	sc.search(ctx, nil, math.Inf(1), tm).minimize()
	if p, e := tm.ThetaPairs.Load(), tm.ThetaEvaluated.Load(); p == 0 || e > 1 {
		t.Fatalf("cancelled pair sweep evaluated %d of %d pairs, want at most 1", e, p)
	}
	// Give worker goroutines a moment to observe the cancellation and exit.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked by cancelled analyses: %d before, %d after settle",
		before, runtime.NumGoroutine())
}

// TestExtendContextMatchesExtend pins the incremental path: extending a
// baseline under an uncancelled context is identical to the full analysis
// of the trial network, and a cancelled extension reports the context
// error.
func TestExtendContextMatchesExtend(t *testing.T) {
	net, err := topo.PaperTandem(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Integrated{}.NewBaseline(net)
	if err != nil {
		t.Fatal(err)
	}
	cand := net.Connections[0]
	cand.Name = "extend-probe"
	grown := &topo.Network{Servers: net.Servers, Connections: append(append([]topo.Connection(nil), net.Connections...), cand)}
	full, err := Integrated{}.Analyze(grown)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := base.ExtendContext(context.Background(), cand)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "extend", full, ctxed.Result())
	requireStagesOfFull(t, "extend", Integrated{}, grown, ctxed.Promote())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := base.ExtendContext(ctx, cand); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExtendContext error %v does not wrap context.Canceled", err)
	}
}

// TestTrialTimesItsPartition pins where a trial's partition time goes: an
// extension of an Integrated baseline re-derives the chain partition and
// reports it under Timings.Partition, like a whole-network pass; a Decomposed
// trial whose candidate adds no route edge reuses the baseline's units and
// reports none.
func TestTrialTimesItsPartition(t *testing.T) {
	net := benchTandemNet(32, 200)
	cand := net.Connections[0]
	cand.Name = "partition-probe"
	for _, tc := range []struct {
		a       Analyzer
		derived bool
	}{{Integrated{}, true}, {Decomposed{}, false}} {
		base, err := tc.a.NewBaseline(net)
		if err != nil {
			t.Fatal(err)
		}
		ctx, tm := WithTimings(context.Background())
		if _, err := base.ExtendContext(ctx, cand); err != nil {
			t.Fatal(err)
		}
		if got := tm.Partition.Load(); (got > 0) != tc.derived {
			t.Errorf("%s trial: Timings.Partition = %dns, partition derived: %v", tc.a.Name(), got, tc.derived)
		}
	}
}

// TestTimingsCollected checks that an analysis run under WithTimings
// attributes time to every pipeline stage it executes.
func TestTimingsCollected(t *testing.T) {
	net, err := topo.RandomFeedforward(8, 12, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, tm := WithTimings(context.Background())
	if _, err := (Integrated{}).AnalyzeContext(ctx, net); err != nil {
		t.Fatal(err)
	}
	stages := tm.StageSeconds()
	for _, stage := range []string{"partition", "aggregate", "theta", "propagate"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("StageSeconds missing stage %q: %v", stage, stages)
		}
	}
	if stages["theta"] <= 0 {
		t.Errorf("theta stage recorded no time: %v", stages)
	}
	for stage, sec := range stages {
		if sec < 0 {
			t.Errorf("stage %q recorded negative time %v", stage, sec)
		}
	}
}
