package minplus

import (
	"math"
	"testing"
)

// fuzzCurve builds a non-decreasing curve from raw fuzz bytes, or nil when
// the bytes cannot form one.
func fuzzCurve(data []byte) *Curve {
	if len(data) < 3 {
		return nil
	}
	slope := float64(data[0]%32) / 8
	pts := []Point{{0, 0}}
	x, y := 0.0, 0.0
	for i := 1; i+1 < len(data) && len(pts) < 8; i += 2 {
		dx := float64(data[i]%16) / 4
		dy := float64(data[i+1]%16) / 4
		x += dx
		y += dy
		pts = append(pts, Point{x, y})
	}
	c := New(pts, slope)
	return &c
}

// FuzzAlgebra checks structural invariants of the core operations on
// arbitrary generated curves: no panics, monotonicity preservation, the
// defining inequalities of min/convolution, and the residual service
// curve's (checkResidual, with its deviation floor) at theta 0 and at a
// theta drawn from the input.
// The seed corpus runs in the normal test suite; `go test -fuzz
// FuzzAlgebra ./internal/minplus` explores further.
func FuzzAlgebra(f *testing.F) {
	f.Add([]byte{8, 1, 1, 2, 2, 0, 4}, []byte{4, 2, 0, 0, 3, 3, 1})
	f.Add([]byte{0, 0, 0}, []byte{31, 15, 15})
	f.Add([]byte{1, 0, 15, 15, 0}, []byte{2, 8, 8})
	// Rate(1) minus a staircase (unit jumps at 0 and 2, slope 1/4): the
	// difference jumps down, which a reconstruction must not flip.
	f.Add([]byte{8, 0, 0}, []byte{2, 0, 4, 8, 0, 0, 4})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		fc, gc := fuzzCurve(a), fuzzCurve(b)
		if fc == nil || gc == nil {
			return
		}
		fcur, gcur := *fc, *gc
		checkSub(t, fcur, gcur)
		checkSub(t, gcur, fcur)
		theta := float64(a[len(a)-1]%32) / 4
		for _, th := range []float64{0, theta} {
			checkResidual(t, fcur, gcur, th)
			checkResidual(t, gcur, fcur, th)
		}
		sum := Add(fcur, gcur)
		mn := Min(fcur, gcur)
		mx := Max(fcur, gcur)
		conv := Convolve(fcur, gcur)
		for _, c := range []Curve{sum, mn, mx, conv} {
			if !c.IsNonDecreasing() {
				t.Fatalf("result not monotone: %v (f=%v g=%v)", c, fcur, gcur)
			}
		}
		hi := fcur.LastX() + gcur.LastX() + 2
		for i := 0; i <= 16; i++ {
			x := hi * float64(i) / 16
			fv, gv := fcur.Eval(x), gcur.Eval(x)
			if mn.Eval(x) > math.Min(fv, gv)+1e-6 {
				t.Fatalf("min above operands at %g", x)
			}
			if mx.Eval(x) < math.Max(fv, gv)-1e-6 {
				t.Fatalf("max below operands at %g", x)
			}
			if s := sum.Eval(x); math.Abs(s-(fv+gv)) > 1e-6 {
				t.Fatalf("sum wrong at %g: %g vs %g", x, s, fv+gv)
			}
			// Convolution never exceeds either split at the endpoints.
			if conv.Eval(x) > fv+gcur.Eval(0)+1e-6 {
				t.Fatalf("conv above f-split at %g", x)
			}
			if conv.Eval(x) > gv+fcur.Eval(0)+1e-6 {
				t.Fatalf("conv above g-split at %g", x)
			}
		}
		// The deviation sweep returns the bits of the probe kernel, either
		// way round.
		for _, ab := range [][2]Curve{{fcur, gcur}, {gcur, fcur}, {fcur, conv}} {
			if got, want := HorizontalDeviation(ab[0], ab[1]), horizontalDeviationProbe(ab[0], ab[1]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("deviation sweep %v, probe kernel %v (alpha=%v beta=%v)", got, want, ab[0], ab[1])
			}
		}
		// Deviations must be consistent: against the same service curve,
		// sup-diff of the min never exceeds that of either operand.
		beta := RateLatency(1, 1)
		dm := SupDiff(mn, beta)
		if df := SupDiff(fcur, beta); dm > df+1e-6 {
			t.Fatalf("SupDiff(min) %g > SupDiff(f) %g", dm, df)
		}
	})
}

// checkSub holds Sub(f, g) to the operands' differences, value and right
// limit, at every operand breakpoint and on a grid past both.
func checkSub(t *testing.T, f, g Curve) {
	t.Helper()
	d := Sub(f, g)
	hi := f.LastX() + g.LastX() + 2
	xs := mergeXs(f.xBreaks(), g.xBreaks())
	for i := 0; i <= 16; i++ {
		xs = append(xs, hi*float64(i)/16)
	}
	for _, x := range xs {
		if got, want := d.Eval(x), f.Eval(x)-g.Eval(x); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Sub(f, g)(%g) = %g, want %g (f=%v g=%v)", x, got, want, f, g)
		}
		if got, want := d.EvalRight(x), f.EvalRight(x)-g.EvalRight(x); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Sub(f, g)(%g+) = %g, want %g (f=%v g=%v)", x, got, want, f, g)
		}
	}
}

// checkDeviationFloor holds DeviationFloor(alpha, g) at or below
// HorizontalDeviation(alpha, chi), chi the curve of g with its gate
// stripped, and at or above 0; it returns the floor.
func checkDeviationFloor(t *testing.T, alpha Curve, g GatedConvex, chi Curve) float64 {
	t.Helper()
	floor, hd := DeviationFloor(alpha, g), HorizontalDeviation(alpha, chi)
	if !(floor >= 0 && floor <= hd) {
		t.Fatalf("DeviationFloor %v, deviation %v (alpha=%v chi=%v form=%+v)", floor, hd, alpha, chi, g)
	}
	return floor
}

// checkResidual holds Arena.Residual(beta, cross, theta) to its definition:
// non-decreasing, zero on [0, theta], and past theta never above the
// clipped difference [beta(t) - cross(t - theta)]^+, value and right
// limit, at every operand breakpoint and on a grid; and, where the
// residual is gated-convex, its DeviationFloor against beta and cross as
// aggregates to the deviation of the residual with its gate stripped.
func checkResidual(t *testing.T, beta, cross Curve, theta float64) {
	t.Helper()
	ar := NewArena()
	r := ar.Residual(beta, cross, theta)
	if g, ok := ar.DecomposeGatedConvex(r); ok {
		chi := ar.ShiftLeft(r, g.Gate)
		checkDeviationFloor(t, beta, g, chi)
		checkDeviationFloor(t, cross, g, chi)
	}
	if !r.IsNonDecreasing() {
		t.Fatalf("Residual(theta=%g) not monotone: %v (beta=%v cross=%v)", theta, r, beta, cross)
	}
	d := Delay(cross, theta)
	hi := theta + beta.LastX() + cross.LastX() + 2
	xs := mergeXs(beta.xBreaks(), d.xBreaks())
	for i := 0; i <= 16; i++ {
		xs = append(xs, hi*float64(i)/16)
	}
	for _, x := range xs {
		if x <= theta {
			if got := r.Eval(x); got != 0 {
				t.Fatalf("Residual(theta=%g)(%g) = %g, want 0 up to theta (beta=%v cross=%v)", theta, x, got, beta, cross)
			}
			continue
		}
		if got, bound := r.Eval(x), max(beta.Eval(x)-d.Eval(x), 0); got > bound+1e-6 {
			t.Fatalf("Residual(theta=%g)(%g) = %g above the clipped difference %g (beta=%v cross=%v)", theta, x, got, bound, beta, cross)
		}
		if got, bound := r.EvalRight(x), max(beta.EvalRight(x)-d.EvalRight(x), 0); got > bound+1e-6 {
			t.Fatalf("Residual(theta=%g)(%g+) = %g above the clipped difference %g (beta=%v cross=%v)", theta, x, got, bound, beta, cross)
		}
	}
}
