package minplus

import (
	"fmt"
	"math"
)

// zeroCurve is the immutable shared zero curve. Curves are never mutated
// after construction, so handing out the same value is safe.
var zeroCurve = Curve{pts: []Point{{0, 0}}, slope: 0}

// Zero returns the identically-zero curve.
func Zero() Curve { return zeroCurve }

func constant(ar *Arena, v float64) Curve {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("minplus: non-finite breakpoint %+v", Point{0, v}))
	}
	if v == 0 {
		return zeroCurve
	}
	pts := ar.points(1)
	pts = append(pts, Point{0, v})
	return Curve{pts: pts, slope: 0}
}

// Affine returns f(t) = b + r*t.
func Affine(r, b float64) Curve {
	if math.IsNaN(r) || math.IsInf(r, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		panic(fmt.Sprintf("minplus: Affine(%g, %g) with non-finite parameter", r, b))
	}
	return Curve{pts: []Point{{0, b}}, slope: r}
}

// Rate returns the service line f(t) = c*t of a constant-rate server.
func Rate(c float64) Curve {
	if c < 0 {
		panic("minplus: Rate with negative capacity")
	}
	return internCurve(internKey{kind: internRate, a: c}, func() Curve {
		return Affine(c, 0)
	})
}

// TokenBucket returns the arrival curve of a (sigma, rho) token bucket:
// f(0) = 0 and f(t) = sigma + rho*t for t > 0. The burst appears as a jump
// at the origin.
func TokenBucket(sigma, rho float64) Curve {
	if sigma < 0 || rho < 0 {
		panic(fmt.Sprintf("minplus: TokenBucket(%g, %g) with negative parameter", sigma, rho))
	}
	return internCurve(internKey{kind: internTokenBucket, a: sigma, b: rho}, func() Curve {
		if sigma == 0 {
			return Affine(rho, 0)
		}
		return New([]Point{{0, 0}, {0, sigma}}, rho)
	})
}

// TokenBucketCapped returns min{c*t, sigma + rho*t}: a (sigma, rho) token
// bucket emitted through an access link of capacity c, as used for the
// source traffic in the paper's evaluation (continuous, concave). Requires
// rho <= c.
func TokenBucketCapped(sigma, rho, c float64) Curve {
	if sigma < 0 || rho < 0 || c <= 0 {
		panic(fmt.Sprintf("minplus: TokenBucketCapped(%g, %g, %g) with invalid parameter", sigma, rho, c))
	}
	if rho > c+Eps {
		panic(fmt.Sprintf("minplus: TokenBucketCapped rate %g exceeds capacity %g", rho, c))
	}
	return internCurve(internKey{kind: internTokenBucketCapped, a: sigma, b: rho, c: c}, func() Curve {
		if sigma == 0 || almostEqual(rho, c) {
			return Affine(math.Min(rho, c), 0)
		}
		x := sigma / (c - rho) // c*x == sigma + rho*x
		return New([]Point{{0, 0}, {x, c * x}}, rho)
	})
}

// RateLatency returns the service curve beta_{r,T}(t) = r * max(0, t-T) of
// a guaranteed-rate (latency-rate) server.
func RateLatency(r, t float64) Curve {
	if r < 0 || t < 0 {
		panic(fmt.Sprintf("minplus: RateLatency(%g, %g) with negative parameter", r, t))
	}
	return internCurve(internKey{kind: internRateLatency, a: r, b: t}, func() Curve {
		if t == 0 {
			return Affine(r, 0)
		}
		return New([]Point{{0, 0}, {t, 0}}, r)
	})
}

// Delay returns the curve shifted right by d: h(t) = f(t-d) for t > d and
// h(t) = f(0) for t <= d. Used to delay service curves and arrival
// envelopes. Requires d >= 0.
func Delay(f Curve, d float64) Curve { return delay(nil, f, d) }

// Delay is the arena variant of the package-level Delay.
func (a *Arena) Delay(f Curve, d float64) Curve { return delay(a, f, d) }

func delay(ar *Arena, f Curve, d float64) Curve {
	f.mustValid()
	if d < 0 {
		panic("minplus: Delay by negative amount")
	}
	if d == 0 {
		return f
	}
	pts := ar.points(len(f.pts) + 1)
	pts = append(pts, Point{0, f.pts[0].Y})
	for _, p := range f.pts {
		pts = append(pts, Point{p.X + d, p.Y})
	}
	return newFromOwned(pts, f.slope)
}

// ShiftLeft returns h(t) = f(t+d) on [0, inf). Requires d >= 0.
func ShiftLeft(f Curve, d float64) Curve { return shiftLeft(nil, f, d) }

// ShiftLeft is the arena variant of the package-level ShiftLeft.
func (a *Arena) ShiftLeft(f Curve, d float64) Curve { return shiftLeft(a, f, d) }

func shiftLeft(ar *Arena, f Curve, d float64) Curve {
	f.mustValid()
	if d < 0 {
		panic("minplus: ShiftLeft by negative amount")
	}
	if d == 0 {
		return f
	}
	return shiftLeftInto(ar.points(len(f.pts)+2), f, d)
}

// shiftLeftInto writes the shifted curve into pts, an empty buffer of any
// capacity: a result longer than cap(pts) reallocates on append. The
// result has at most len(f.pts)+1 points, and at most len(f.pts) unless d is
// within tolerance of 0 (ShiftPool.ShiftLeft relies on that bound).
func shiftLeftInto(pts []Point, f Curve, d float64) Curve {
	pts = append(pts, Point{0, f.Eval(d)})
	if r := f.EvalRight(d); !almostEqual(r, pts[0].Y) {
		pts = append(pts, Point{0, r})
	}
	for _, p := range f.pts {
		if p.X > d && !almostEqual(p.X, d) {
			pts = append(pts, Point{p.X - d, p.Y})
		}
	}
	return newFromOwned(pts, f.slope)
}

// VShift returns f + v (vertical shift by a constant, possibly negative).
func (a *Arena) VShift(f Curve, v float64) Curve { return vshift(a, f, v) }

func vshift(ar *Arena, f Curve, v float64) Curve {
	f.mustValid()
	pts := ar.points(len(f.pts))[:len(f.pts)]
	for i, p := range f.pts {
		pts[i] = Point{p.X, p.Y + v}
	}
	return newFromOwned(pts, f.slope)
}

// ScaleY returns k * f. Requires k >= 0 to preserve monotonicity contracts.
func ScaleY(f Curve, k float64) Curve {
	f.mustValid()
	if k < 0 {
		panic("minplus: ScaleY with negative factor")
	}
	pts := make([]Point, len(f.pts))
	for i, p := range f.pts {
		pts[i] = Point{p.X, k * p.Y}
	}
	return newFromOwned(pts, k*f.slope)
}

// ZeroUntil returns the curve that is identically zero on [0, at] and
// follows f afterwards (with a jump at `at` if f(at+) > 0). It gates
// service curves such as the FIFO residual family, which guarantee nothing
// before their parameter. f must be non-negative beyond at.
func ZeroUntil(f Curve, at float64) Curve { return zeroUntil(nil, f, at) }

// ZeroUntil is the arena variant of the package-level ZeroUntil.
func (a *Arena) ZeroUntil(f Curve, at float64) Curve { return zeroUntil(a, f, at) }

func zeroUntil(ar *Arena, f Curve, at float64) Curve {
	f.mustValid()
	if at < 0 {
		panic("minplus: ZeroUntil at negative time")
	}
	if at == 0 {
		return f
	}
	pts := ar.points(len(f.pts) + 3)
	pts = append(pts, Point{0, 0}, Point{at, 0})
	if r := f.EvalRight(at); r > 0 {
		pts = append(pts, Point{at, r})
	}
	for _, p := range f.pts {
		if p.X > at && !almostEqual(p.X, at) {
			pts = append(pts, p)
		}
	}
	return newFromOwned(pts, f.slope)
}
