package minplus

import "math"

// SupDiff returns sup_{t >= 0} { f(t) - g(t) }, which may be +Inf when f
// eventually outgrows g. The supremum of a difference of piecewise-linear
// functions is attained at (one side of) a breakpoint of either operand or
// in the affine tail.
func SupDiff(f, g Curve) float64 {
	f.mustValid()
	g.mustValid()
	if f.slope > g.slope+Eps {
		return math.Inf(1)
	}
	// The sup over the candidate set is order-independent, so instead of
	// materializing the merged abscissa union the candidates are probed
	// straight off each operand's breakpoint array (allocation-free; a
	// duplicated probe changes nothing under max).
	best := math.Inf(-1)
	probe := func(x float64) {
		best = math.Max(best, f.Eval(x)-g.Eval(x))
		best = math.Max(best, f.EvalRight(x)-g.EvalRight(x))
	}
	maxX := 0.0
	for i, p := range f.pts {
		if i > 0 && almostEqual(p.X, f.pts[i-1].X) {
			continue
		}
		probe(p.X)
		maxX = math.Max(maxX, p.X)
	}
	for i, p := range g.pts {
		if i > 0 && almostEqual(p.X, g.pts[i-1].X) {
			continue
		}
		probe(p.X)
		maxX = math.Max(maxX, p.X)
	}
	// Tail: the difference is affine with slope f.slope-g.slope <= 0
	// beyond the last breakpoint; its value there is covered by EvalRight
	// at the last breakpoint, but probe once more to be safe against
	// equal-slope tails.
	far := maxX + 1
	best = math.Max(best, f.Eval(far)-g.Eval(far))
	return best
}

// VerticalDeviation returns the maximum vertical distance
// sup_t { alpha(t) - beta(t) }: the backlog bound of a server with service
// curve beta fed with traffic bounded by alpha.
func VerticalDeviation(alpha, beta Curve) float64 { return SupDiff(alpha, beta) }

// HorizontalDeviation returns the maximum horizontal distance
//
//	h(alpha, beta) = sup_{t >= 0} inf{ d >= 0 : alpha(t) <= beta(t+d) },
//
// the delay bound of a FIFO server with service curve beta fed with traffic
// bounded by alpha. Returns +Inf when beta cannot eventually cover alpha.
func HorizontalDeviation(alpha, beta Curve) float64 {
	alpha.mustValid()
	beta.mustValid()
	if !alpha.IsNonDecreasing() || !beta.IsNonDecreasing() {
		panic("minplus: HorizontalDeviation requires non-decreasing curves")
	}
	if alpha.slope > beta.slope+Eps {
		return math.Inf(1)
	}
	if beta.slope <= Eps {
		// Bounded service: finite delay only if alpha is bounded below
		// beta's supremum.
		aSup := alpha.pts[len(alpha.pts)-1].Y
		bSup := beta.pts[len(beta.pts)-1].Y
		if alpha.slope > Eps || aSup > bSup+Eps {
			return math.Inf(1)
		}
	}
	// d(t) = betaInv(alpha(t)) - t is piecewise linear in t with
	// breakpoints at alpha's breakpoints and at preimages (under alpha) of
	// beta's breakpoint ordinates. The supremum over that candidate set is
	// order-independent, so the candidates are probed as they are
	// enumerated — no merged/sorted abscissa list is materialized and the
	// whole computation is allocation-free. Both enumerations ascend in t,
	// hence in the ordinates looked up, so each pseudo-inverse is one
	// forward walk (inverseCursor) over curves validated once, above.
	s := deviationSweep{alpha: alpha, beta: beta, betaInv: inverseCursor{f: beta}}
	maxT := 0.0
	for i, p := range alpha.pts {
		if i > 0 && almostEqual(p.X, alpha.pts[i-1].X) {
			continue
		}
		if !s.probe(p.X) {
			return math.Inf(1)
		}
		maxT = math.Max(maxT, p.X)
	}
	alphaInv := inverseCursor{f: alpha}
	for _, p := range beta.pts {
		t := alphaInv.at(p.Y)
		if t < 0 {
			continue
		}
		if !s.probe(t) {
			return math.Inf(1)
		}
		maxT = math.Max(maxT, t)
	}
	// Tail probe: beyond the last candidate both alpha and betaInv(alpha)
	// are affine; if their difference still grows the deviation is
	// unbounded, otherwise the last candidates dominate.
	far := maxT + 1
	if !s.probe(far) || !s.probe(far+1) {
		return math.Inf(1)
	}
	return s.best
}

// deviationSweep is the state of one HorizontalDeviation: the running
// supremum and beta's pseudo-inverse position.
type deviationSweep struct {
	alpha, beta Curve
	betaInv     inverseCursor
	best        float64
}

// probe raises best to d(t) and its one-sided limits; false means beta
// never covers alpha(t), an infinite deviation.
func (s *deviationSweep) probe(t float64) bool {
	y := s.alpha.Eval(t)
	x := s.betaInv.at(y)
	if !s.raise(x, t) {
		return false
	}
	// Wherever alpha is continuous at t the right limit has the bits of the
	// value, and so has its inverse.
	yr, slope := s.alpha.evalRightSlope(t)
	if math.Float64bits(yr) != math.Float64bits(y) {
		if x = s.betaInv.at(yr); !s.raise(x, t) {
			return false
		}
	}
	// When alpha crosses a plateau ordinate of beta exactly at t and
	// keeps rising, the deviation just after t uses the strict inverse
	// inf{x : beta(x) > y}, which jumps across the plateau; take the
	// right limit of d at t as well (the deviation is a supremum, so
	// one-sided limits count). The strict inverse applies only while
	// alpha strictly increases after t: for a locally flat alpha the
	// non-strict inverse above is the exact one.
	return slope <= Eps || s.raise(strictInverseFrom(s.beta, yr, x), t)
}

// raise takes the candidate deviation x - t, x a pseudo-inverse of beta at
// an ordinate alpha takes at t; false when there is none (x < 0).
func (s *deviationSweep) raise(x, t float64) bool {
	if x < 0 {
		return false
	}
	if d := x - t; d > s.best {
		s.best = d
	}
	return true
}

// MaxBusyPeriod returns the length of the longest interval during which a
// work-conserving server of capacity c can remain continuously backlogged
// when its aggregate input is bounded by g: sup{ t > 0 : g(t) >= c*t }.
// Returns +Inf when the server is unstable (g's long-run rate >= c).
func MaxBusyPeriod(g Curve, c float64) float64 {
	g.mustValid()
	if c <= 0 {
		panic("minplus: MaxBusyPeriod with non-positive capacity")
	}
	if g.slope >= c-Eps {
		if g.slope > c+Eps {
			return math.Inf(1)
		}
		// Equal rates: busy period unbounded iff g stays above c*t forever.
		far := g.LastX() + 1
		if g.Eval(far) >= c*far-Eps {
			return math.Inf(1)
		}
	}
	// Walk breakpoints from the end to find the last time g(t) >= c*t.
	xs := g.xBreaks()
	last := 0.0
	for i := len(xs) - 1; i >= 0; i-- {
		x := xs[i]
		d := g.EvalRight(x) - c*x
		if d >= -Eps {
			// Busy region extends into the following segment; solve the
			// crossing g(x) + s*(t-x) = c*t.
			s := g.EvalRight(x)
			var slope float64
			if i == len(xs)-1 {
				slope = g.slope
			} else {
				slope = (g.Eval(xs[i+1]) - s) / (xs[i+1] - x)
			}
			if slope >= c-Eps {
				// Does not cross within this segment; continue from the
				// next breakpoint (handled by earlier iterations since we
				// walk from the end: if we are here, all later
				// breakpoints were already below).
				if i == len(xs)-1 {
					return math.Inf(1)
				}
				last = math.Max(last, xs[i+1])
				break
			}
			t := (s - slope*x) / (c - slope)
			last = math.Max(last, math.Max(t, x))
			break
		}
		// Also check the left value at x (jump down cannot happen for
		// non-decreasing g, but g need not dominate c*t continuously).
		if g.Eval(x)-c*x >= -Eps {
			last = math.Max(last, x)
			break
		}
	}
	return math.Max(last, 0)
}
