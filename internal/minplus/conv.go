package minplus

import (
	"fmt"
	"math"
)

// Convolve returns the min-plus convolution
//
//	(f (x) g)(t) = inf_{0 <= s <= t} { f(s) + g(t-s) },
//
// the fundamental composition of network calculus: the output of a server
// with service curve g fed by traffic bounded by f, or the end-to-end
// service curve of two servers in series. Both operands must be
// non-decreasing.
//
// The computation is exact. For each t the infimum of the piecewise-linear
// function s -> f(s) + g(t-s) is attained (or approached one-sidedly) at a
// breakpoint of f or at t minus a breakpoint of g. The convolution is
// therefore the pointwise minimum of the finite family of "branch" curves
//
//	t -> f(a) + g(t-a)   for each breakpoint a of f (both one-sided values),
//	t -> g(b) + f(t-b)   for each breakpoint b of g (both one-sided values),
//
// each branch extended left of its pivot by a constant, which never falls
// below the true convolution because f and g are non-decreasing. Pointwise
// Min with crossing detection then yields the exact envelope, including
// breakpoints that are not sums of operand breakpoints.
func Convolve(f, g Curve) Curve { return convolve(nil, f, g) }

// Convolve is the arena variant of the package-level Convolve.
func (a *Arena) Convolve(f, g Curve) Curve { return convolve(a, f, g) }

func convolve(ar *Arena, f, g Curve) Curve {
	f.mustValid()
	g.mustValid()
	if !f.IsNonDecreasing() || !g.IsNonDecreasing() {
		panic("minplus: Convolve requires non-decreasing curves")
	}
	branches := ar.curves(2 * (len(f.pts) + len(g.pts)))
	addPivots := func(outer, inner Curve) {
		pts := outer.pts
		for i, p := range pts {
			if i > 0 && almostEqual(p.X, pts[i-1].X) {
				continue
			}
			a := p.X
			v0 := outer.Eval(a)
			shifted := delay(ar, inner, a)
			branches = append(branches, vshift(ar, shifted, v0))
			if r := outer.EvalRight(a); !almostEqual(r, v0) {
				branches = append(branches, vshift(ar, shifted, r))
			}
		}
	}
	addPivots(f, g)
	addPivots(g, f)
	return reduceEnvelope(ar, branches, math.Min, minTail)
}

// reduceEnvelope folds curves with the pointwise op (min or max, with its
// tail rule) using a balanced reduction to keep intermediate breakpoint
// counts low.
func reduceEnvelope(ar *Arena, curves []Curve, op func(a, b float64) float64, tail func(f, g Curve, farT float64) float64) Curve {
	if len(curves) == 0 {
		return Zero()
	}
	for len(curves) > 1 {
		next := curves[:0]
		for i := 0; i < len(curves); i += 2 {
			if i+1 < len(curves) {
				next = append(next, pointwise(ar, curves[i], curves[i+1], op, tail))
			} else {
				next = append(next, curves[i])
			}
		}
		curves = next
	}
	return curves[0]
}

// Deconvolve returns the min-plus deconvolution
//
//	(f (/) g)(t) = sup_{s >= 0} { f(t+s) - g(s) },
//
// which yields the tightest arrival curve of the output of a server with
// service curve g fed by traffic with arrival curve f. It returns an error
// if the supremum is infinite (f grows faster than g, i.e. the server is
// unstable for this input). Like Convolve, the result is the exact upper
// envelope of branch curves pivoted at operand breakpoints.
func Deconvolve(f, g Curve) (Curve, error) { return deconvolve(nil, f, g) }

// Deconvolve is the arena variant of the package-level Deconvolve.
func (a *Arena) Deconvolve(f, g Curve) (Curve, error) { return deconvolve(a, f, g) }

func deconvolve(ar *Arena, f, g Curve) (Curve, error) {
	f.mustValid()
	g.mustValid()
	if !f.IsNonDecreasing() || !g.IsNonDecreasing() {
		panic("minplus: Deconvolve requires non-decreasing curves")
	}
	if f.slope > g.slope+Eps {
		return Curve{}, fmt.Errorf("minplus: deconvolution diverges: arrival slope %g exceeds service slope %g", f.slope, g.slope)
	}
	branches := ar.curves(2 * (len(f.pts) + len(g.pts)))
	// Branches pivoted at breakpoints b of g: t -> f(t+b) - g(b).
	gpts := g.pts
	for i, p := range gpts {
		if i > 0 && almostEqual(p.X, gpts[i-1].X) {
			continue
		}
		b := p.X
		v0 := g.Eval(b)
		shifted := shiftLeft(ar, f, b)
		branches = append(branches, vshift(ar, shifted, -v0))
		if r := g.EvalRight(b); !almostEqual(r, v0) {
			branches = append(branches, vshift(ar, shifted, -r))
		}
	}
	// Branches pivoted at breakpoints x of f: t -> f(x) - g(x-t) for
	// t <= x, constant f(x) - g(0+) afterwards.
	fpts := f.pts
	for i, p := range fpts {
		if i > 0 && almostEqual(p.X, fpts[i-1].X) {
			continue
		}
		x := p.X
		v0 := f.Eval(x)
		refl := reflectAround(ar, g, x)
		branches = append(branches, pointwise(ar, constant(ar, v0), refl, opSub, subTail))
		if r := f.EvalRight(x); !almostEqual(r, v0) {
			branches = append(branches, pointwise(ar, constant(ar, r), refl, opSub, subTail))
		}
	}
	return reduceEnvelope(ar, branches, math.Max, maxTail), nil
}

// reflectAround builds h(t) = g(max(x - t, 0)) as a left-continuous curve:
// the time-reversed tail of g hinged at x. h is non-increasing.
func reflectAround(ar *Arena, g Curve, x float64) Curve {
	ts := ar.floats(len(g.pts) + 2)
	ts = append(ts, 0, x)
	gpts := g.pts
	for i, p := range gpts {
		if i > 0 && almostEqual(p.X, gpts[i-1].X) {
			continue
		}
		if d := x - p.X; d > 0 {
			ts = append(ts, d)
		}
	}
	eval := func(t float64) float64 {
		arg := x - t
		if arg < 0 {
			arg = 0
		}
		// Left-continuity in t means the limit from below in t, i.e. the
		// limit from above in the argument of g.
		return g.EvalRight(arg)
	}
	return fromEvaluator(ar, ts, eval, 0)
}
