package minplus

import (
	"math"
	"math/rand"
	"testing"
)

// composedResidual is the residual service curve spelled out operation by
// operation, as the package built it before Arena.Residual: delay the
// cross traffic, subtract, clip at 0, take the monotone closure, gate.
func composedResidual(beta, cross Curve, theta float64) Curve {
	return ZeroUntil(MonotoneClosure(PositivePart(Sub(beta, Delay(cross, theta)))), theta)
}

// genRawCurve draws a non-decreasing curve off the lattice genCurve keeps
// to: random real coordinates, interior jumps and flat runs, so the
// tolerance rules of the sweep meet arbitrary rounding.
func genRawCurve(r *rand.Rand) Curve {
	pts := []Point{{0, 0}}
	x, y := 0.0, 0.0
	if r.Intn(3) == 0 {
		y = r.Float64() * 5
		pts = append(pts, Point{0, y})
	}
	for i := 1 + r.Intn(6); i > 0; i-- {
		x += 0.05 + r.Float64()*3
		switch r.Intn(5) {
		case 0: // flat run, then a jump
			pts = append(pts, Point{x, y})
			y += r.Float64() * 4
		case 1: // a jump only
			pts = append(pts, Point{x, y})
			y += r.Float64() * 2
		default:
			y += r.Float64() * 4
		}
		pts = append(pts, Point{x, y})
	}
	return New(pts, r.Float64()*3)
}

// residualCrosses is the cross-traffic family of the kernel tests: concave
// token-bucket sums, capped and delayed buckets, a staircase (a unit burst
// at 0, another at 2, slope 0.3: its residual jumps down where the second
// burst lands), and random non-concave curves with interior jumps, on and
// off the 1/8 lattice.
func residualCrosses(rng *rand.Rand) []Curve {
	crosses := []Curve{
		TokenBucket(1, 0.2),
		Sum(TokenBucketCapped(2, 0.3, 1), TokenBucketCapped(1, 0.1, 1), TokenBucket(0.5, 0.05), TokenBucketCapped(3, 0.2, 2)),
		TokenBucketCapped(4, 0.25, 1.5),
		Delay(TokenBucket(1, 0.3), 2),
		Delay(TokenBucketCapped(2, 0.4, 1), 0.75),
		New([]Point{{0, 0}, {0, 1}, {2, 1}, {2, 2}}, 0.3),
		Zero(),
	}
	for i := 0; i < 40; i++ {
		crosses = append(crosses, genCurve(rng), genRawCurve(rng))
	}
	return crosses
}

// residualThetas returns the candidate parameters of one kernel test: 0, an
// even grid past the cross traffic's last breakpoint, and every breakpoint
// of either curve.
func residualThetas(beta, cross Curve) []float64 {
	thetas := []float64{0}
	hi := cross.LastX() + beta.LastX() + 2
	for k := 1; k <= 8; k++ {
		thetas = append(thetas, hi*float64(k)/8)
	}
	for _, c := range []Curve{beta, cross} {
		for _, p := range c.pts {
			if p.X > 0 {
				thetas = append(thetas, p.X)
			}
		}
	}
	return thetas
}

// requireResidualMatches holds the kernel to the composition: Equal, and
// value and right limit at every breakpoint of either result and of the
// operands' breakpoints shifted by theta.
func requireResidualMatches(t *testing.T, ar *Arena, beta, cross Curve, theta float64) {
	t.Helper()
	got, want := ar.Residual(beta, cross, theta), composedResidual(beta, cross, theta)
	fail := func(what string, x float64) {
		t.Helper()
		t.Fatalf("%s at %g: Residual(theta=%g) differs from the composition\nbeta  %v\ncross %v\ngot   %v\nwant  %v",
			what, x, theta, beta, cross, got, want)
	}
	if !got.Equal(want) {
		fail("Equal", math.NaN())
	}
	if got.FinalSlope() != want.FinalSlope() && !almostEqual(got.FinalSlope(), want.FinalSlope()) {
		fail("final slope", math.Inf(1))
	}
	xs := append(got.xBreaks(), want.xBreaks()...)
	for _, p := range cross.pts {
		xs = append(xs, p.X+theta)
	}
	for _, p := range beta.pts {
		xs = append(xs, p.X)
	}
	for _, x := range xs {
		if !almostEqual(got.Eval(x), want.Eval(x)) {
			fail("Eval", x)
		}
		if !almostEqual(got.EvalRight(x), want.EvalRight(x)) {
			fail("EvalRight", x)
		}
	}
}

// TestResidualMatchesComposition pins the one-pass kernel to the five
// operations it replaces on concave, capped, delayed, staircase and random
// non-concave cross traffic against rate, rate-latency and random service
// curves, at theta 0, on a grid and on every breakpoint.
func TestResidualMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	betas := []Curve{Rate(1), Rate(2.5), RateLatency(1, 1.5), RateLatency(0.7, 2), Rate(0.1)}
	for i := 0; i < 10; i++ {
		betas = append(betas, genCurve(rng), genRawCurve(rng))
	}
	ar := NewArena()
	checked := 0
	for _, cross := range residualCrosses(rng) {
		for _, beta := range betas {
			for _, theta := range residualThetas(beta, cross) {
				ar.Reset()
				requireResidualMatches(t, ar, beta, cross, theta)
				checked++
			}
		}
	}
	t.Logf("%d residuals equal to the composition", checked)
}

// TestResidualHeapAndArenaAgree checks that the nil-arena form (the heap,
// as ServiceCurve calls it) builds the same points as an arena.
func TestResidualHeapAndArenaAgree(t *testing.T) {
	var heap *Arena
	beta, cross := Rate(1), Sum(TokenBucketCapped(2, 0.3, 1), TokenBucket(1, 0.1))
	ar := NewArena()
	for _, theta := range []float64{0, 0.5, 3, 10} {
		h, a := heap.Residual(beta, cross, theta), ar.Residual(beta, cross, theta)
		if h.NumPoints() != a.NumPoints() {
			t.Fatalf("theta %g: heap %v, arena %v", theta, h, a)
		}
		for i := 0; i < h.NumPoints(); i++ {
			if h.PointAt(i) != a.PointAt(i) {
				t.Fatalf("theta %g: heap %v, arena %v", theta, h, a)
			}
		}
	}
}

// TestResidualChargesDelayedBurst is the downward jump at theta: against
// Rate(1), a unit-burst bucket delayed past its clearing time still takes
// its burst at theta, so the residual right of theta is theta - 1, not
// theta.
func TestResidualChargesDelayedBurst(t *testing.T) {
	r := NewArena().Residual(Rate(1), TokenBucket(1, 0.3), 2)
	if got := r.Eval(2); got != 0 {
		t.Errorf("r(2) = %g, want 0 (gated)", got)
	}
	if got := r.EvalRight(2); got != 1 {
		t.Errorf("r(2+) = %g, want 1 = 2 - burst", got)
	}
	if got := r.FinalSlope(); got != 0.7 {
		t.Errorf("final slope %g, want 0.7", got)
	}
}

func TestResidualPanicsOnNegativeTheta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArena().Residual(Rate(1), TokenBucket(1, 0.5), -1)
}

// TestResidualAllocCeiling: on a warm arena the kernel allocates nothing.
func TestResidualAllocCeiling(t *testing.T) {
	beta := Rate(1)
	cross := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucketCapped(1, 0.1, 1), TokenBucket(0.5, 0.05), TokenBucketCapped(3, 0.2, 2))
	thetas := residualThetas(beta, cross)
	ar := GetArena()
	defer ar.Release()
	run := func() {
		ar.Reset()
		for _, theta := range thetas {
			ar.Residual(beta, cross, theta)
		}
	}
	run() // warm the arena to its high-water mark
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("Arena.Residual allocates %.0f times on a warm arena, ceiling is 0", allocs)
	}
}

// BenchmarkResidual compares the one-pass kernel with the composition it
// replaced, on the shape a FIFO theta search builds per candidate: a
// four-source concave cross aggregate against Rate(1).
func BenchmarkResidual(b *testing.B) {
	beta := Rate(1)
	cross := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucketCapped(1, 0.1, 1), TokenBucket(0.5, 0.05), TokenBucketCapped(3, 0.2, 2))
	thetas := residualThetas(beta, cross)
	ar := NewArena()
	b.Run("composed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ar.Reset()
			theta := thetas[i%len(thetas)]
			ar.ZeroUntil(MonotoneClosure(PositivePart(Sub(beta, ar.Delay(cross, theta)))), theta)
		}
	})
	b.Run("one_pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ar.Reset()
			ar.Residual(beta, cross, thetas[i%len(thetas)])
		}
	})
}
