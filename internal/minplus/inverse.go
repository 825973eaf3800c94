package minplus

import "math"

// LowerInverse returns the lower pseudo-inverse of a non-decreasing curve,
//
//	f^{-1}(y) = inf{ t >= 0 : f(t) >= y },
//
// itself a non-decreasing curve in y. Flat segments of f become jumps of
// the inverse and jumps of f become flat segments. For y below f(0+) the
// inverse is 0. The curve must be unbounded (positive final slope) so that
// the inverse is defined for all y; LowerInverse panics otherwise, since a
// bounded curve has no finite inverse beyond its supremum.
func LowerInverse(f Curve) Curve {
	f.mustValid()
	if !f.IsNonDecreasing() {
		panic("minplus: LowerInverse requires a non-decreasing curve")
	}
	if f.slope <= Eps {
		panic("minplus: LowerInverse of a bounded curve (final slope 0)")
	}
	// Candidate ordinates: the Y values of all breakpoints (both sides of
	// jumps) plus 0.
	ys := []float64{0}
	for _, p := range f.pts {
		if p.Y > 0 {
			ys = append(ys, p.Y)
		}
	}
	eval := func(y float64) float64 { return LowerInverseAt(f, y) }
	return fromEvaluator(nil, ys, eval, 1/f.slope)
}

// LowerInverseAt evaluates the lower pseudo-inverse of f at a single
// ordinate y without constructing the full inverse curve.
func LowerInverseAt(f Curve, y float64) float64 {
	f.mustValid()
	if !f.IsNonDecreasing() {
		panic("minplus: LowerInverseAt requires a non-decreasing curve")
	}
	if y <= f.pts[0].Y {
		return 0
	}
	x, _ := f.lowerInverseFrom(0, y)
	return x
}

// lowerInverseFrom walks the segments of f from breakpoint index i to the
// first time the curve reaches y, and returns that time with the index the
// walk stopped at. The walk visits a fixed sequence of indices (the first
// and last point of every X-run) and y only decides where it stops, later
// for a larger y: an index passed over for y is passed over for every
// y' >= y (its ordinates lie below y by more than the tolerance, which
// grows slower than the gap), so a walk for y' resumed at the index the
// walk for y stopped at returns what a walk from 0 returns, bit for bit.
func (f Curve) lowerInverseFrom(i int, y float64) (float64, int) {
	for ; i < len(f.pts); i++ {
		p := f.pts[i]
		if p.Y >= y || almostEqual(p.Y, y) {
			return p.X, i
		}
		last := f.lastOfRun(i)
		if last != i {
			// Jump at p.X from p.Y to f.pts[last].Y.
			if f.pts[last].Y >= y || almostEqual(f.pts[last].Y, y) {
				return p.X, i
			}
			i = last - 1 // continue from the upper point
			continue
		}
		s := f.segSlope(i)
		var nextY float64
		var span float64
		if i+1 < len(f.pts) {
			span = f.pts[i+1].X - p.X
			nextY = p.Y + s*span
		} else {
			span = math.Inf(1)
			nextY = math.Inf(1)
			if s <= Eps {
				panic("minplus: LowerInverseAt beyond the supremum of a bounded curve")
			}
		}
		if nextY >= y {
			if s <= Eps {
				// Flat segment cannot reach a strictly larger y;
				// the next breakpoint handles it.
				continue
			}
			return p.X + (y-p.Y)/s, i
		}
	}
	panic("minplus: LowerInverseAt internal error") // unreachable
}

// inverseCursor evaluates LowerInverseAtBounded(f, y) for a sequence of
// ordinates of a curve the caller has validated (valid, non-decreasing)
// once: an ascending sequence costs one walk over f in total, and a y
// below the previous one restarts the walk, so every answer has the bits
// of the standalone call.
type inverseCursor struct {
	f Curve
	i int     // where the last walk stopped
	y float64 // the ordinate it stopped for; only meaningful once i > 0
}

func (c *inverseCursor) at(y float64) float64 {
	f := c.f
	if y <= f.pts[0].Y {
		return 0
	}
	last := f.pts[len(f.pts)-1]
	if f.slope <= Eps && y > last.Y && !almostEqual(y, last.Y) {
		return -1
	}
	if c.i > 0 && y < c.y {
		c.i = 0
	}
	var x float64
	x, c.i = f.lowerInverseFrom(c.i, y)
	c.y = y
	return x
}

// strictInverseFrom returns inf{ x >= 0 : f(x) > y } for a non-decreasing
// curve, given its lower pseudo-inverse x = LowerInverseAtBounded(f, y) >= 0,
// or -1 when f never strictly exceeds y (bounded curves whose supremum is
// at most y). It differs from x only where f has a plateau at exactly y,
// in which case the strict inverse skips past the plateau.
func strictInverseFrom(f Curve, y, x float64) float64 {
	for {
		r, slope := f.evalRightSlope(x)
		if r > y && !almostEqual(r, y) {
			return x
		}
		// The right limit at x is still y; if the curve rises continuously
		// from it, f exceeds y immediately after x and x is the strict
		// inverse. Only a genuine plateau (zero right slope) is skipped.
		if slope > Eps {
			return x
		}
		// The curve sits at (approximately) y just after x: advance to the
		// next distinct breakpoint, or into the affine tail.
		advanced := false
		for i, p := range f.pts {
			if i > 0 && almostEqual(p.X, f.pts[i-1].X) {
				continue
			}
			if p.X > x && !almostEqual(p.X, x) {
				x = p.X
				advanced = true
				break
			}
		}
		if !advanced {
			if f.slope > Eps {
				return x // the tail rises immediately past y
			}
			return -1 // flat forever at y
		}
	}
}
