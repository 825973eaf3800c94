package minplus

import "math"

// Residual returns the FIFO residual service curve of network calculus
// (Cruz's induced FIFO curves; Le Boudec & Thiran Proposition 6.2.1),
//
//	r(t) = inf_{s >= t} [beta(s) - cross(s - theta)]^+  for t > theta,  0 on [0, theta],
//
// built in the arena: the curve ZeroUntil(MonotoneClosure(PositivePart(
// Sub(beta, Delay(cross, theta)))), theta) in one forward sweep and one
// reverse scan, with no evaluator reconstruction. beta and cross must be
// non-decreasing; neither needs to be concave or continuous. At theta = 0
// the value at the origin is the closure's, min over s >= 0 of the
// clipped difference.
//
// Why the fused form is exact: the closure at any t > theta reads only
// values at s >= t, so closing before or after the gate at theta gives the
// same curve, and the sweep can start at theta.
//
//   - The forward sweep merges beta's breakpoints past theta with cross's
//     shifted by theta. At each abscissa it takes both curves' value and
//     right limit from their point arrays (the cursor holds the active
//     segment of each), clips the difference at 0 and inserts its zero
//     crossings (the tolerance rule of the pointwise operations).
//   - The reverse scan takes the monotone closure. On a segment the closure
//     is min(p(t), m), where m is its value at the segment's right end, so
//     a rising segment that meets m gains one breakpoint there.
//
// The result is written, gate included, into one arena buffer: the clipped
// difference fills it from the front, the closure from the back.
func (a *Arena) Residual(beta, cross Curve, theta float64) Curve {
	beta.mustValid()
	cross.mustValid()
	if !(theta >= 0) || math.IsInf(theta, 1) {
		panic("minplus: Residual with negative or non-finite theta")
	}
	// Sweep abscissae: theta plus at most len-1 runs of each curve past it.
	// The clipped difference holds at most two points per abscissa and one
	// zero crossing per segment; its closure at most two points per
	// abscissa, crossings included, and one per segment, plus the gate.
	n := len(beta.pts) + len(cross.pts)
	buf := a.points(9*n + 1)
	buf = buf[:cap(buf)]

	b := segCursor{pts: beta.pts, final: beta.slope}
	c := segCursor{pts: cross.pts, off: theta, final: cross.slope}
	br, cr := b.seek(theta), c.seek(theta)

	// Forward sweep: the clipped difference p on [theta, inf), in curve
	// order. Its value at theta is gated to 0 unless theta is the origin.
	p := buf[:0]
	v0 := 0.0
	if theta == 0 {
		v0 = max(beta.pts[0].Y-cross.pts[0].Y, 0)
	}
	x, vr := theta, br-cr
	p = append(p, Point{x, v0})
	if pr := max(vr, 0); pr != v0 {
		p = append(p, Point{x, pr})
	}
	for {
		nx := min(b.next(), c.next())
		if math.IsInf(nx, 1) {
			break
		}
		bl, bRight := b.at(nx)
		cl, cRight := c.at(nx)
		v := bl - cl
		if (vr > Eps && v < -Eps) || (vr < -Eps && v > Eps) {
			if t := x + (nx-x)*(-vr)/(v-vr); t > x && t < nx {
				p = append(p, Point{t, 0})
			}
		}
		x, vr = nx, bRight-cRight
		pv, pr := max(v, 0), max(vr, 0)
		p = append(p, Point{x, pv})
		if pr != pv {
			p = append(p, Point{x, pr})
		}
	}
	// The tail, where the difference is affine: one more zero crossing, and
	// the clipped slope (slopes within tolerance count as parallel).
	s := beta.slope - cross.slope
	if math.Abs(s) > Eps {
		if t := x - vr/s; t > x+Eps {
			p = append(p, Point{t, 0})
		}
	}
	slope := 0.0
	if s > Eps || (s >= -Eps && vr >= 0) {
		slope = s
	}

	// Reverse scan: the closure, written backwards from the end of buf. On
	// the tail the clipped difference does not decrease, so the closure
	// follows it: p and the closure at the next abscissa start at +Inf.
	// Each abscissa's left value and right limit are the last two points
	// of p sharing its X.
	out := len(buf)
	xNext, pNext, mNext := 0.0, math.Inf(1), math.Inf(1)
	for k := len(p) - 1; k >= 0; k-- {
		xk, right := p[k].X, p[k].Y
		left := right
		if k > 0 && p[k-1].X == xk {
			k--
			left = p[k].Y
		}
		// p runs linearly from right to pNext on (xk, xNext); the closure
		// there is min(p, mNext).
		if right < mNext && mNext < pNext && !almostEqual(mNext, right) && !almostEqual(mNext, pNext) {
			out--
			buf[out] = Point{xk + (xNext-xk)*(mNext-right)/(pNext-right), mNext}
		}
		mr := min(right, mNext)
		ml := min(left, mr)
		out--
		buf[out] = Point{xk, mr}
		if ml != mr {
			out--
			buf[out] = Point{xk, ml}
		}
		xNext, pNext, mNext = xk, left, ml
	}
	if theta > 0 {
		out--
		buf[out] = Point{0, 0}
	}
	return newFromOwned(buf[out:], slope)
}

// segCursor walks a curve's breakpoints, shifted right by off, in
// increasing abscissa: pts[i] is the last point of the run whose segment
// holds the values just right of the current abscissa, and s that
// segment's slope. Abscissae within tolerance of a run count as on it, as
// in Eval and EvalRight.
type segCursor struct {
	pts   []Point
	off   float64
	final float64
	i     int
	s     float64
}

// seek positions the cursor at x and returns the right limit there.
func (c *segCursor) seek(x float64) float64 {
	for c.i+1 < len(c.pts) {
		if nx := c.pts[c.i+1].X + c.off; nx > x && !almostEqual(nx, x) {
			break
		}
		c.i++
	}
	c.s = c.slope()
	return c.pts[c.i].Y + c.s*(x-(c.pts[c.i].X+c.off))
}

// slope is the slope of the segment starting at pts[i].
func (c *segCursor) slope() float64 {
	if c.i+1 < len(c.pts) {
		return (c.pts[c.i+1].Y - c.pts[c.i].Y) / ((c.pts[c.i+1].X + c.off) - (c.pts[c.i].X + c.off))
	}
	return c.final
}

// next returns the abscissa of the next breakpoint run, +Inf past the last.
func (c *segCursor) next() float64 {
	if c.i+1 < len(c.pts) {
		return c.pts[c.i+1].X + c.off
	}
	return math.Inf(1)
}

// at returns the value and right limit at x, which must not lie past
// next(), and steps over the run at x when x is on it.
func (c *segCursor) at(x float64) (v, vr float64) {
	k := c.i + 1
	if k >= len(c.pts) || !almostEqual(c.pts[k].X+c.off, x) {
		v = c.pts[c.i].Y + c.s*(x-(c.pts[c.i].X+c.off))
		return v, v
	}
	v = c.pts[k].Y
	for k+1 < len(c.pts) && almostEqual(c.pts[k+1].X+c.off, c.pts[k].X+c.off) {
		k++
	}
	c.i = k
	c.s = c.slope()
	return v, c.pts[k].Y
}
