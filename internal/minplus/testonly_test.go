package minplus

import "math"

// Curve builders and shape predicates only the tests use.

// NewArena returns an empty arena, outside the package pool (GetArena).
func NewArena() *Arena { return &Arena{} }

// Constant returns the constant curve f(t) = v.
func Constant(v float64) Curve { return constant(nil, v) }

// Identity returns f(t) = t.
func Identity() Curve { return identityCurve }

var identityCurve = Curve{pts: []Point{{0, 0}}, slope: 1}

// Step returns the curve that is 0 for t <= at and h afterwards.
func Step(h, at float64) Curve {
	if at < 0 {
		panic("minplus: Step at negative time")
	}
	if at == 0 {
		return TokenBucket(h, 0)
	}
	return New([]Point{{0, 0}, {at, 0}, {at, h}}, 0)
}

// VShift returns f + v (vertical shift by a constant, possibly negative).
func VShift(f Curve, v float64) Curve { return vshift(nil, f, v) }

// ScaleX returns h(t) = f(t/k), stretching the time axis by k > 0.
func ScaleX(f Curve, k float64) Curve {
	f.mustValid()
	if k <= 0 {
		panic("minplus: ScaleX with non-positive factor")
	}
	pts := make([]Point, len(f.pts))
	for i, p := range f.pts {
		pts[i] = Point{k * p.X, p.Y}
	}
	return newFromOwned(pts, f.slope/k)
}

// IsConcave reports whether the curve is concave on (0, inf), i.e. segment
// slopes are non-increasing and there are no upward jumps after x=0. A jump
// at x=0 (as in a pure token bucket) does not break concavity on (0, inf).
func (c Curve) IsConcave() bool {
	c.mustValid()
	prev := math.Inf(1)
	for i := 0; i < len(c.pts); i++ {
		if i > 0 && almostEqual(c.pts[i].X, c.pts[i-1].X) {
			if c.pts[i-1].X > Eps {
				return false // interior jump
			}
			continue
		}
		if last := c.lastOfRun(i); last != i {
			continue
		}
		s := c.segSlope(i)
		if s > prev+Eps {
			return false
		}
		prev = s
	}
	return true
}

// IsConvex reports whether the curve is convex: segment slopes are
// non-decreasing and there are no jumps.
func (c Curve) IsConvex() bool {
	c.mustValid()
	if !c.IsContinuous() {
		return false
	}
	prev := math.Inf(-1)
	for i := 0; i < len(c.pts); i++ {
		s := c.segSlope(i)
		if s < prev-Eps {
			return false
		}
		prev = s
	}
	return true
}
