package minplus

import "math"

// pointwise builds the exact piecewise-linear combination h(t) =
// op(f(t), g(t)). Breakpoints of the result lie at the union of the operand
// breakpoints plus, for min and max, the crossing points of f and g inside
// shared segments; crossings are found per segment pair by linear
// interpolation. tailSlope must give the exact slope of the result beyond
// all breakpoints and crossings; it is computed from the operand slopes
// rather than by numeric differencing so that no floating-point drift
// enters the representation. With a non-nil arena all scratch and result
// storage comes from the arena.
func pointwise(ar *Arena, f, g Curve, op func(a, b float64) float64, tailSlope func(f, g Curve, farT float64) float64) Curve {
	f.mustValid()
	g.mustValid()
	xs := mergeBreaks(ar, f, g)
	// Add crossing points of f-g within each inter-breakpoint interval and
	// in the tail, where both functions are linear: at most one per
	// interval plus one in the tail.
	extra := ar.floats(len(xs))
	addCrossing := func(lo, hi float64) {
		fl, gl := f.EvalRight(lo), g.EvalRight(lo)
		if math.IsInf(hi, 1) {
			// Tail: slopes within tolerance are treated as parallel; a
			// crossing computed from a near-zero slope difference would
			// land at an astronomically large abscissa and destroy
			// float64 precision downstream.
			df := f.slope - g.slope
			if math.Abs(df) <= Eps {
				return
			}
			d0 := fl - gl
			t := lo - d0/df
			if t > lo+Eps {
				extra = append(extra, t)
			}
			return
		}
		fh, gh := f.Eval(hi), g.Eval(hi)
		d0, d1 := fl-gl, fh-gh
		if (d0 > Eps && d1 < -Eps) || (d0 < -Eps && d1 > Eps) {
			t := lo + (hi-lo)*(-d0)/(d1-d0)
			extra = append(extra, t)
		}
	}
	for i := 0; i+1 < len(xs); i++ {
		addCrossing(xs[i], xs[i+1])
	}
	addCrossing(xs[len(xs)-1], math.Inf(1))
	all := mergeXsArena(ar, xs, extra)

	eval := func(t float64) float64 { return op(f.Eval(t), g.Eval(t)) }
	return fromEvaluator(ar, all, eval, tailSlope(f, g, all[len(all)-1]+1))
}

func addTail(f, g Curve, _ float64) float64 { return f.slope + g.slope }
func subTail(f, g Curve, _ float64) float64 { return f.slope - g.slope }

// minTail picks the exact slope of min(f, g) far to the right: the smaller
// slope wins eventually; for (near-)parallel tails the lower curve wins and
// the shared slope is returned exactly.
func minTail(f, g Curve, farT float64) float64 {
	switch {
	case f.slope < g.slope-Eps:
		return f.slope
	case g.slope < f.slope-Eps:
		return g.slope
	case f.Eval(farT) <= g.Eval(farT):
		return f.slope
	default:
		return g.slope
	}
}

func maxTail(f, g Curve, farT float64) float64 {
	switch {
	case f.slope > g.slope+Eps:
		return f.slope
	case g.slope > f.slope+Eps:
		return g.slope
	case f.Eval(farT) >= g.Eval(farT):
		return f.slope
	default:
		return g.slope
	}
}

func opAdd(a, b float64) float64 { return a + b }
func opSub(a, b float64) float64 { return a - b }

// Add returns f + g.
func Add(f, g Curve) Curve { return pointwise(nil, f, g, opAdd, addTail) }

// Sum adds any number of curves; Sum() is the zero curve. It delegates to
// SumN, the single-pass k-way merge.
func Sum(curves ...Curve) Curve {
	return SumN(curves...)
}

// Min returns the pointwise minimum of f and g.
func Min(f, g Curve) Curve { return pointwise(nil, f, g, math.Min, minTail) }

// Max returns the pointwise maximum of f and g.
func Max(f, g Curve) Curve { return pointwise(nil, f, g, math.Max, maxTail) }

// PositivePart returns max(f, 0), written [f]^+ in network calculus.
func PositivePart(f Curve) Curve { return Max(f, Zero()) }

// Sub returns f - g. The result need not be monotone; it is intended for
// deviation computations and plotting.
func Sub(f, g Curve) Curve { return pointwise(nil, f, g, opSub, subTail) }

// MonotoneClosure returns the greatest non-decreasing curve that nowhere
// exceeds f:
//
//	f_down(t) = inf_{s >= t} f(s).
//
// It is used to repair leftover service curves that dip: a smaller service
// curve is always a valid (if weaker) guarantee, so the closure is sound.
// The curve's final slope must be non-negative, otherwise the infimum is
// -Inf everywhere and MonotoneClosure panics.
func MonotoneClosure(f Curve) Curve {
	f.mustValid()
	if f.slope < -Eps {
		panic("minplus: MonotoneClosure of a curve decreasing to -Inf")
	}
	if f.IsNonDecreasing() {
		return f
	}
	xs := f.xBreaks()
	// M[i] = inf of f over [xs[i], inf).
	m := make([]float64, len(xs))
	tail := f.EvalRight(xs[len(xs)-1]) // min of the affine tail (slope >= 0)
	run := tail
	// Segment interiors are linear, so every local minimum is attained at
	// a breakpoint value or one-sided limit; a reverse scan suffices.
	for i := len(xs) - 1; i >= 0; i-- {
		v, vr := f.Eval(xs[i]), f.EvalRight(xs[i])
		run = math.Min(run, math.Min(v, vr))
		m[i] = run
	}
	// Step curve S(t) = M[first i with xs[i] >= t], built directly from the
	// reverse scan: value m[i] at xs[i], constant m[i+1] on the open
	// interval after it. On the tail S follows f itself (the tail infimum
	// is its right limit at the last breakpoint, since slope >= 0) so that
	// Min(f, S) leaves the tail untouched.
	pts := make([]Point, 0, 2*len(xs))
	for i, x := range xs {
		pts = append(pts, Point{x, m[i]})
		if i+1 < len(xs) {
			if !almostEqual(m[i+1], m[i]) {
				pts = append(pts, Point{x, m[i+1]})
			}
		} else if !almostEqual(tail, m[i]) {
			pts = append(pts, Point{x, tail})
		}
	}
	s := Curve{pts: pts, slope: f.slope}
	s.normalize()
	return Min(f, s)
}
