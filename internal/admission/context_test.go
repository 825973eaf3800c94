package admission

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// TestIsCanceled pins the cancellation classifier both ways: wrapped
// context errors count, everything else does not.
func TestIsCanceled(t *testing.T) {
	if !IsCanceled(context.Canceled) || !IsCanceled(context.DeadlineExceeded) {
		t.Fatal("bare context errors not classified as cancellation")
	}
	if !IsCanceled(fmt.Errorf("analysis: %w", context.Canceled)) {
		t.Fatal("wrapped context.Canceled not classified")
	}
	if IsCanceled(errors.New("spec invalid")) || IsCanceled(nil) {
		t.Fatal("non-context errors classified as cancellation")
	}
}

// TestTestCancelled pins two contract points of the cancelled
// admission test: the error is a cancellation (never mislabeled as a bad
// spec) and the engine does NOT fall through to the more expensive full
// path after an incremental cut-off.
func TestTestCancelled(t *testing.T) {
	eng := newEngine(t, fabric(3), analysis.Integrated{}, 1)
	// Warm the incremental baseline so the cancelled test below takes the
	// incremental path.
	if d, err := eng.Admit(bg, conn("warm", 50, 0, 1, 2)); err != nil || !d.Admitted {
		t.Fatalf("warm admit: %+v, %v", d, err)
	}
	fullBefore := eng.Stats().FullTests
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Test(ctx, conn("probe", 50, 0, 1))
	if err == nil {
		t.Fatal("cancelled test returned no error")
	}
	if !IsCanceled(err) {
		t.Fatalf("cancelled test error %v not classified by IsCanceled", err)
	}
	if got := eng.Stats().FullTests; got != fullBefore {
		t.Fatalf("cancelled incremental test fell through to the full path: %d -> %d full tests",
			fullBefore, got)
	}
	if eng.Count() != 1 {
		t.Fatalf("cancelled test mutated the admitted set: count=%d", eng.Count())
	}
}

// TestAdmitCancelledCommitsNothing checks the hard invariant of a cut-off
// envelope: no partial commit, and it says so (Commits == 0).
func TestAdmitCancelledCommitsNothing(t *testing.T) {
	eng := newEngine(t, fabric(2), analysis.Integrated{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := eng.ApplyBatch(ctx, []Op{{Kind: OpAdmit, Candidate: conn("v1", 5, 0, 1)}})
	if !IsCanceled(err) {
		t.Fatalf("cancelled admit error = %v, want cancellation", err)
	}
	if br == nil || br.Commits != 0 || br.Results != nil {
		t.Fatalf("cancelled admit reported %+v, want zero commits and no results", br)
	}
	if eng.Count() != 0 {
		t.Fatalf("cancelled admit committed: count=%d", eng.Count())
	}
}

// expiredBudget is a context whose soft analysis budget has already run
// out: every theta search under it takes its decomposed ceiling.
func expiredBudget() context.Context {
	return analysis.WithBudget(bg, func() bool { return true })
}

// requireBetween checks the degradation law on the last n bounds of a
// degraded result: none below the primary analyzer's, none above the
// decomposed one.
func requireBetween(t *testing.T, label string, got, primary, decomposed []float64, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		b, lo, hi := got[len(got)-i], primary[len(primary)-i], decomposed[len(decomposed)-i]
		if b < lo-minplus.Eps || b > hi+minplus.Eps {
			t.Errorf("%s: bound %d from the end = %v outside [primary %v, decomposed %v]", label, i, b, lo, hi)
		}
	}
}

// TestDegradedCommitStaysConsistent drives the degraded admission path: an
// envelope whose soft budget has run out still commits, once, on bounds
// between the primary analyzer's and the decomposed ones, and the engine's
// NEXT test (no budget) sees the committed connection exactly as a fresh
// Controller does — the degraded extension must not be left behind as the
// incremental baseline.
func TestDegradedCommitStaysConsistent(t *testing.T) {
	eng := newEngine(t, fabric(2), analysis.Integrated{}, 1)
	// Warm the baseline first, as a degraded request would find it.
	if d, err := eng.Admit(bg, conn("first", 50, 0, 1)); err != nil || !d.Admitted {
		t.Fatalf("first admit: %+v, %v", d, err)
	}
	ctx := expiredBudget()
	br, err := eng.ApplyBatch(ctx, []Op{{Kind: OpAdmit, Candidate: conn("degraded", 50, 0, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	d := br.Results[0].Decision
	if !d.Admitted || br.Commits != 1 || !analysis.Degraded(ctx) {
		t.Fatalf("degraded admit: %+v, %d commits, degraded %v; want admitted, one commit, degraded",
			d, br.Commits, analysis.Degraded(ctx))
	}
	if eng.shards[0].snap.Load().cachedBaseline() != nil {
		t.Fatal("degraded admit promoted its extension to the snapshot's baseline")
	}
	// The decision's bounds sit between the two analyzers'.
	trial := trialNetworkForTest(t, eng)
	intRef, err := analysis.Integrated{}.Analyze(trial)
	if err != nil {
		t.Fatal(err)
	}
	decRef, err := analysis.Decomposed{}.Analyze(trial)
	if err != nil {
		t.Fatal(err)
	}
	requireBetween(t, "degraded admit", d.Bounds, intRef.Bounds, decRef.Bounds, len(d.Bounds))
	if eng.Count() != 2 {
		t.Fatalf("count = %d after degraded admit, want 2", eng.Count())
	}
	// A later test through the normal path must judge against BOTH
	// admitted connections with the primary analyzer, identically to a
	// fresh Controller holding the same set.
	fresh, err := New(fabric(2), analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range eng.Admitted() {
		if d, err := fresh.Admit(c); err != nil || !d.Admitted {
			t.Fatalf("replaying %q on a fresh controller: %+v, %v", c.Name, d, err)
		}
	}
	probe := conn("probe", 50, 0, 1)
	got, err := eng.Test(bg, probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Test(probe)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDecision(t, "post-degraded-commit", want, got)
}

// trialNetworkForTest rebuilds the engine's current admitted set as a
// network for reference analysis.
func trialNetworkForTest(t *testing.T, eng *ShardedEngine) *topo.Network {
	t.Helper()
	net := &topo.Network{Servers: fabric(2), Connections: eng.Admitted()}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}
