package minplus

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLowerInverseOfLine(t *testing.T) {
	f := Rate(2)
	inv := LowerInverse(f)
	if !inv.Equal(Rate(0.5)) {
		t.Errorf("inverse of 2t = %v, want 0.5y", inv)
	}
}

func TestLowerInverseOfConcave(t *testing.T) {
	f := TokenBucketCapped(3, 0.5, 1) // t up to 6, then 3 + 0.5t
	inv := LowerInverse(f)
	cases := []struct{ y, want float64 }{
		{0, 0}, {3, 3}, {6, 6}, {8, 10}, // y=8: 3+0.5t=8 -> t=10
	}
	for _, tc := range cases {
		if got := inv.Eval(tc.y); !almostEqual(got, tc.want) {
			t.Errorf("inv(%g) = %g, want %g", tc.y, got, tc.want)
		}
	}
	// Round trip: f(inv(y)) == y for continuous strictly-increasing f.
	for _, y := range []float64{0.5, 2, 5.5, 9, 20} {
		if got := f.Eval(inv.Eval(y)); !almostEqual(got, y) {
			t.Errorf("f(inv(%g)) = %g, want %g", y, got, y)
		}
	}
}

func TestLowerInverseJumpBecomesFlat(t *testing.T) {
	f := TokenBucket(4, 1) // jump to 4 at 0+
	inv := LowerInverse(f)
	// Any y in (0,4] is first reached at t=0.
	for _, y := range []float64{0.5, 2, 4} {
		if got := inv.Eval(y); !almostEqual(got, 0) {
			t.Errorf("inv(%g) = %g, want 0 (jump)", y, got)
		}
	}
	if got := inv.Eval(5); !almostEqual(got, 1) {
		t.Errorf("inv(5) = %g, want 1", got)
	}
}

func TestLowerInverseFlatBecomesJump(t *testing.T) {
	// f rises to 2 at t=2, flat until t=5, then slope 1.
	f := New([]Point{{0, 0}, {2, 2}, {5, 2}}, 1)
	inv := LowerInverse(f)
	if got := inv.Eval(2); !almostEqual(got, 2) {
		t.Errorf("inv(2) = %g, want 2 (first time f reaches 2)", got)
	}
	// Just above the plateau the inverse jumps to 5.
	if got := inv.Eval(2.1); !almostEqual(got, 5.1) {
		t.Errorf("inv(2.1) = %g, want 5.1", got)
	}
	if got := inv.EvalRight(2); !almostEqual(got, 5) {
		t.Errorf("inv right of 2 = %g, want 5", got)
	}
}

func TestLowerInverseAtMatchesCurve(t *testing.T) {
	f := New([]Point{{0, 0}, {1, 3}, {4, 3}, {4, 6}}, 0.5)
	inv := LowerInverse(f)
	for _, y := range []float64{0, 1, 2.9, 3, 3.5, 5.9, 6, 7, 12} {
		got := LowerInverseAt(f, y)
		want := inv.Eval(y)
		if !almostEqual(got, want) {
			t.Errorf("LowerInverseAt(%g) = %g, curve gives %g", y, got, want)
		}
	}
}

func TestLowerInverseGaloisProperty(t *testing.T) {
	// f(t) >= y iff t >= f^{-1}(y) for left-continuous non-decreasing f
	// holds up to the boundary; verify the inequality form:
	// f(f^{-1}(y)) >= y when f is continuous at the point, and always
	// f(t) < y for t < f^{-1}(y).
	f := New([]Point{{0, 0}, {1, 2}, {3, 2}, {3, 5}}, 1)
	for _, y := range []float64{0.5, 1.9, 2, 3, 4.9, 5, 6} {
		x := LowerInverseAt(f, y)
		if x > 0 {
			before := f.Eval(x - 1e-6)
			if before >= y+1e-5 {
				t.Errorf("y=%g: f(%g - eps) = %g >= y, inverse not minimal", y, x, before)
			}
		}
		reach := math.Max(f.Eval(x), f.EvalRight(x))
		if reach < y-1e-6 {
			t.Errorf("y=%g: f does not reach y at inverse point %g (got %g)", y, x, reach)
		}
	}
}

func TestLowerInversePanicsOnBounded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bounded curve")
		}
	}()
	LowerInverse(Constant(3))
}

func TestLowerInverseAtBounded(t *testing.T) {
	f := New([]Point{{0, 0}, {4, 4}}, 0)
	if got := LowerInverseAtBounded(f, 2); !almostEqual(got, 2) {
		t.Errorf("bounded inverse below sup = %g, want 2", got)
	}
	if got := LowerInverseAtBounded(f, 4); !almostEqual(got, 4) {
		t.Errorf("bounded inverse at sup = %g, want 4", got)
	}
	if got := LowerInverseAtBounded(f, 5); got != -1 {
		t.Errorf("bounded inverse above sup = %g, want -1", got)
	}
}

func TestComposeLinear(t *testing.T) {
	f := Affine(2, 1)
	g := Affine(3, 0)
	h := Compose(f, g) // 1 + 2*(3t) = 1 + 6t
	if !h.Equal(Affine(6, 1)) {
		t.Errorf("compose = %v, want 1 + 6t", h)
	}
}

func TestComposePicksUpInnerBreakpoints(t *testing.T) {
	f := TokenBucketCapped(4, 0.5, 2) // knee where 2t = 4 + 0.5t -> t = 8/3
	g := Rate(0.5)
	h := Compose(f, g) // f(t/2)
	sampleCheck(t, h, func(x float64) float64 { return f.Eval(0.5 * x) }, 20, "compose")
}

func TestComposeOuterBreakpointPreimages(t *testing.T) {
	f := RateLatency(1, 3) // breakpoint at x=3
	g := Rate(2)
	h := Compose(f, g) // max(0, 2t-3): breakpoint at t=1.5
	if got := h.Eval(1.5); !almostEqual(got, 0) {
		t.Errorf("h(1.5) = %g, want 0", got)
	}
	if got := h.Eval(2.5); !almostEqual(got, 2) {
		t.Errorf("h(2.5) = %g, want 2", got)
	}
	if !almostEqual(h.FinalSlope(), 2) {
		t.Errorf("final slope = %g, want 2", h.FinalSlope())
	}
}

func TestComposeWithBoundedInner(t *testing.T) {
	g := New([]Point{{0, 0}, {4, 4}}, 0) // saturates at 4
	f := Rate(2)
	h := Compose(f, g)
	if got := h.Eval(10); !almostEqual(got, 8) {
		t.Errorf("h(10) = %g, want 8 (saturated)", got)
	}
	if !almostEqual(h.FinalSlope(), 0) {
		t.Errorf("final slope = %g, want 0", h.FinalSlope())
	}
}

func TestComposeJumpInInner(t *testing.T) {
	g := TokenBucket(3, 1)
	f := Rate(2)
	h := Compose(f, g)
	if got := h.Eval(0); got != 0 {
		t.Errorf("h(0) = %g, want 0 (left-continuity)", got)
	}
	if got := h.EvalRight(0); !almostEqual(got, 6) {
		t.Errorf("h(0+) = %g, want 6", got)
	}
}

// TestInverseCursorMatchesStandalone drives one cursor per corpus curve with
// ascending, repeated and falling ordinates — every breakpoint ordinate, the
// midpoints between them, values past the supremum — and holds each answer
// to LowerInverseAtBounded bit for bit; and evalRightSlope to the two calls
// it replaces.
func TestInverseCursorMatchesStandalone(t *testing.T) {
	alphas, betas := deviationCorpus()
	rng := rand.New(rand.NewSource(27))
	lookups := 0
	for _, f := range append(alphas, betas...) {
		if !f.IsNonDecreasing() {
			t.Fatalf("corpus curve decreases: %v", f)
		}
		var ys []float64
		for i := 0; i < f.NumPoints(); i++ {
			y := f.PointAt(i).Y
			ys = append(ys, y, y, y+0.5*rng.Float64(), math.Nextafter(y, math.Inf(1)), math.Nextafter(y, 0))
		}
		ys = append(ys, f.PointAt(f.NumPoints()-1).Y+3, -1, 0)
		c := inverseCursor{f: f}
		// Ascending first, then the same ordinates in a random order: every
		// fall restarts the walk.
		sort.Float64s(ys)
		for pass := 0; pass < 2; pass++ {
			for _, y := range ys {
				got, want := c.at(y), LowerInverseAtBounded(f, y)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cursor at %v = %v, standalone %v on %v", y, got, want, f)
				}
				lookups++
			}
			rng.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		}
		for i := 0; i < f.NumPoints(); i++ {
			for _, x := range []float64{f.PointAt(i).X, f.PointAt(i).X + 0.25, f.LastX() + 2} {
				v, slope := f.evalRightSlope(x)
				if wv, ws := f.EvalRight(x), f.RightSlope(x); math.Float64bits(v) != math.Float64bits(wv) || math.Float64bits(slope) != math.Float64bits(ws) {
					t.Fatalf("evalRightSlope(%v) = %v, %v; EvalRight %v, RightSlope %v on %v", x, v, slope, wv, ws, f)
				}
			}
		}
	}
	t.Logf("%d lookups identical", lookups)
}
