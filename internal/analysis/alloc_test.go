package analysis

import (
	"context"
	"math"
	"runtime/debug"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// analyzeAllocs returns one Integrated analysis of net and the heap
// allocations a steady-state pass makes: AllocsPerRun's own warm-up pass
// fills the arena and scratch pools and pins GOMAXPROCS to 1 (levels run
// sequentially, so the count does not depend on the core count), and GC is
// suspended so no collection drains the pools between passes.
func analyzeAllocs(t *testing.T, a Integrated, net *topo.Network) (*Result, float64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if res, err = a.Analyze(net); err != nil {
			t.Fatal(err)
		}
	})
	return res, allocs
}

// raceBuild reports whether the test binary runs under the race detector.
// There sync.Pool drops a random quarter of its Puts, so the pooled arenas
// are re-grown at random and analyzeAllocs counts the detector's behaviour,
// not the engine's (the k=2 theta search reads 9 against its ceiling of 8
// in one -race run in four): the allocation tests log their counts there
// and judge only the bounds.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestThetaSearchAllocCeiling gates the steady-state allocations of the
// theta-search inner loop: a warm-arena k=2 enumeration (candidate grids,
// memoized residuals, gated-convex decompositions, and the per-pair slope
// merges) must run the pooled path end to end without heap traffic beyond
// a small constant. testing.AllocsPerRun pins GOMAXPROCS to 1, so the
// enumeration takes parallelMinArena's sequential branch and draws its
// worker arena from the warm pool deterministically.
func TestThetaSearchAllocCeiling(t *testing.T) {
	caps := [2]float64{1.0, 1.0}
	cross := [2]minplus.Curve{
		minplus.TokenBucket(0.3, 0.25),
		minplus.TokenBucket(0.2, 0.35),
	}
	agg := minplus.TokenBucketCapped(0.5, 0.4, 1.0)
	local := [2]float64{1.1, 0.9}

	ar := minplus.GetArena()
	defer ar.Release()

	run := func() float64 {
		ar.Reset()
		cands := make([][]float64, 2)
		for i := 0; i < 2; i++ {
			cands[i] = thetaCandidatesArena(ar, caps[i], cross[i], local[i])
		}
		ts := &thetaSearch{
			ctx:   context.Background(),
			agg:   agg,
			cands: cands,
			ar:    ar,
			residual: func(i int, theta float64) minplus.Curve {
				return fifoResidual(ar, caps[i], cross[i], theta)
			},
		}
		return ts.minimize()
	}

	want := run() // warm the chain arena and the worker arena pool
	if math.IsInf(want, 1) || math.IsNaN(want) {
		t.Fatalf("theta search returned %v on a stable two-server scenario", want)
	}
	// The worker arena lives in a sync.Pool, which the GC drains at will:
	// under heap pressure (-race, -count) a collection between runs evicts
	// the warm arena and every run re-allocates it, tripping the ceiling
	// for a reason that has nothing to do with the inner loop. Suspend GC
	// for the measurement so the pool stays warm and the count is the
	// loop's own steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, func() {
		if got := run(); got != want {
			t.Errorf("theta search drifted: got %v, want %v", got, want)
		}
	})
	t.Logf("theta-search k=2 allocs/op: %.0f (bound %v)", allocs, want)
	// minimize builds its memo spine (res outer slice, the two parts rows,
	// the cands header) on the heap per call; everything per-candidate must
	// come from the arenas.
	if allocs > 8 && !raceBuild() {
		t.Errorf("theta-search inner loop allocates %.0f times per search, ceiling is 8", allocs)
	}
}
