package minplus

import "math"

// SlopeSeg is one finite segment of a convex section: horizontal length
// and slope.
type SlopeSeg struct {
	Len, Slope float64
}

// GatedConvex is the canonical form of a "gated-convex" curve
//
//	f(t) = 0                       for 0 <= t <= Gate,
//	f(t) = Jump + psi(t - Gate)    for t > Gate,
//
// where psi is continuous, convex and non-decreasing with psi(0) = 0,
// described by the finite segments Segs (non-decreasing slopes) followed
// by the infinite Tail slope. FIFO residual service curves against concave
// cross traffic always have this shape, and min-plus convolutions of such
// curves admit the closed form below, which the analysis layer exploits to
// avoid the generic convolution in its theta enumeration.
type GatedConvex struct {
	Gate, Jump float64
	Segs       []SlopeSeg
	Tail       float64
}

// DecomposeGatedConvex writes f in gated-convex canonical form. The second
// return is false when f does not have the shape (nonzero start, interior
// or downward jumps, non-convex section after the gate, decreasing tail).
func DecomposeGatedConvex(f Curve) (GatedConvex, bool) {
	return decomposeGatedConvex(nil, f)
}

// DecomposeGatedConvex is the arena variant of the package-level function:
// the Segs slice of the result is drawn from the arena.
func (a *Arena) DecomposeGatedConvex(f Curve) (GatedConvex, bool) {
	return decomposeGatedConvex(a, f)
}

func decomposeGatedConvex(ar *Arena, f Curve) (GatedConvex, bool) {
	f.mustValid()
	pts := f.pts
	if !almostEqual(pts[0].Y, 0) {
		return GatedConvex{}, false
	}
	// The gate is the last abscissa at which f is still zero.
	i := 0
	for i+1 < len(pts) && almostEqual(pts[i+1].Y, 0) {
		i++
	}
	g := GatedConvex{Gate: pts[i].X}
	j := i + 1
	if j < len(pts) && almostEqual(pts[j].X, pts[i].X) {
		g.Jump = pts[j].Y
		if g.Jump < -Eps {
			return GatedConvex{}, false
		}
		j++
	}
	prevX, prevY := g.Gate, g.Jump
	prevSlope := math.Inf(-1)
	g.Segs = ar.segs(len(pts) - j)
	for ; j < len(pts); j++ {
		p := pts[j]
		if p.X <= prevX || almostEqual(p.X, prevX) {
			return GatedConvex{}, false // jump after the gate
		}
		s := (p.Y - prevY) / (p.X - prevX)
		if s < -Eps || s < prevSlope-Eps {
			return GatedConvex{}, false
		}
		g.Segs = append(g.Segs, SlopeSeg{Len: p.X - prevX, Slope: s})
		prevX, prevY, prevSlope = p.X, p.Y, s
	}
	if f.slope < -Eps || f.slope < prevSlope-Eps {
		return GatedConvex{}, false
	}
	g.Tail = f.slope
	return g, true
}

// floorMargin is the relative margin DeviationFloor gives up to rounding:
// the floor and the deviation it bounds are computed along different
// paths, each with a few roundings of relative size 2^-52.
const floorMargin = 1e-6

// DeviationFloor returns a lower bound of HorizontalDeviation(alpha, chi),
// chi the curve of g with its gate stripped (ConvexPartCurve(g), or
// ShiftLeft by g.Gate of the curve g decomposes), from g's jump and slopes
// alone, in one pass over alpha's breakpoints and without building chi.
// For u > 0, chi(u) = Jump + psi(u) with psi(0) = 0 and no slope above S,
// the largest of Tail and the segment slopes (Tail itself for a convex
// psi; the decomposition tolerates slope dips of Eps), so
// chi(u) <= Jump + S*u, and reaching alpha(t) takes chi at least until
// (alpha(t) - Jump)/S:
//
//	h(alpha, chi) >= max(0, max over alpha's breakpoints (x, y) of (y - Jump)/S - x).
//
// HorizontalDeviation probes every breakpoint of a normalized alpha, both
// sides of a jump, and takes chi's pseudo-inverse with the tolerance of
// almostEqual, and chi(0) may sit up to Eps above 0 (the decomposition's
// zero test); each term gives up floorMargin of its two parts and
// 2*Eps*(1 + y) of y for those, so the floor stays at or below the
// computed deviation, not just the exact one. A chi of final slope at
// most Eps bounds nothing here: the floor is 0.
func DeviationFloor(alpha Curve, g GatedConvex) float64 {
	alpha.mustValid()
	if !(g.Tail > Eps) {
		return 0
	}
	s := g.Tail
	for _, seg := range g.Segs {
		s = math.Max(s, seg.Slope)
	}
	floor := 0.0
	for _, p := range alpha.pts {
		d := ((1-floorMargin)*(p.Y-g.Jump)-2*Eps*(1+p.Y))/s - (1+floorMargin)*p.X
		floor = math.Max(floor, d)
	}
	return floor
}

// Curve reconstructs the curve described by the canonical form.
func (g GatedConvex) Curve() Curve {
	pts := make([]Point, 0, len(g.Segs)+3)
	pts = append(pts, Point{0, 0})
	if g.Gate > 0 {
		pts = append(pts, Point{g.Gate, 0})
	}
	x, y := g.Gate, g.Jump
	if g.Jump > 0 {
		pts = append(pts, Point{x, y})
	}
	for _, s := range g.Segs {
		x += s.Len
		y += s.Len * s.Slope
		pts = append(pts, Point{x, y})
	}
	return New(pts, g.Tail)
}

// MergeConvexParts returns, in canonical form, the branch of a ⊗ b in
// which both operands receive a positive share of the argument: gates and
// jumps add, and the convex sections convolve — their segments replayed in
// ascending slope order, truncated at the smaller tail slope. The result is
// again a gate, a jump and a convex section, so branches of longer
// convolutions are built by merging one operand at a time (the k-ary
// identity in internal/analysis/thetasearch.go); the whole convolution is
// not gated-convex, see ConvolveGated. Segs is drawn from the arena.
func (ar *Arena) MergeConvexParts(a, b GatedConvex) GatedConvex {
	tail := math.Min(a.Tail, b.Tail)
	return GatedConvex{
		Gate: a.Gate + b.Gate,
		Jump: a.Jump + b.Jump,
		Segs: mergeConvexSegs(ar, a.Segs, b.Segs, tail),
		Tail: tail,
	}
}

// ConvexPartCurve returns the curve of g with its gate stripped,
//
//	W(0) = 0,  W(u) = Jump + psi(u)  for u > 0,
//
// drawn from the arena.
func (ar *Arena) ConvexPartCurve(g GatedConvex) Curve {
	pts := ar.points(len(g.Segs) + 2)
	pts = append(pts, Point{0, 0})
	x, y := 0.0, g.Jump
	if !almostEqual(g.Jump, 0) {
		pts = append(pts, Point{0, g.Jump})
	}
	for _, s := range g.Segs {
		x += s.Len
		y += s.Len * s.Slope
		pts = append(pts, Point{x, y})
	}
	out := Curve{pts: pts, slope: g.Tail}
	out.normalize()
	return out
}

// ConvolveConvexParts returns the "interior" branch of the convolution of
// two gated-convex curves with their gates stripped: the curve
//
//	W(0) = 0,  W(u) = Jump_a + Jump_b + (psi_a ⊗ psi_b)(u)  for u > 0,
//
// that is ConvexPartCurve(MergeConvexParts(a, b)). Together with the two
// single-jump branches it yields the full convolution; see ConvolveGated.
func ConvolveConvexParts(a, b GatedConvex) Curve {
	return convolveConvexParts(nil, a, b)
}

// ConvolveConvexParts is the arena variant of the package-level function.
func (ar *Arena) ConvolveConvexParts(a, b GatedConvex) Curve {
	return convolveConvexParts(ar, a, b)
}

func convolveConvexParts(ar *Arena, a, b GatedConvex) Curve {
	return ar.ConvexPartCurve(ar.MergeConvexParts(a, b))
}

// mergeConvexSegs merges two ascending-slope segment lists in slope order,
// dropping segments whose slope is not below cut: a slope reached by the
// (infinitely long) cheaper tail never contributes to the infimal
// convolution.
func mergeConvexSegs(ar *Arena, a, b []SlopeSeg, cut float64) []SlopeSeg {
	out := ar.segs(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var s SlopeSeg
		if j >= len(b) || (i < len(a) && a[i].Slope <= b[j].Slope) {
			s = a[i]
			i++
		} else {
			s = b[j]
			j++
		}
		if s.Slope >= cut {
			break // ascending: everything after is >= cut too
		}
		if n := len(out); n > 0 && almostEqual(out[n-1].Slope, s.Slope) {
			out[n-1].Len += s.Len
		} else {
			out = append(out, s)
		}
	}
	return out
}

// ConvolveGated computes f ⊗ g through the gated-convex closed form
//
//	f ⊗ g = Delay_{Gf+Gg}( min( chi_f, chi_g, W ) ),
//
// where chi = ShiftLeft(curve, gate) strips the gate (keeping the jump and
// convex section) and W = ConvolveConvexParts pays both jumps at once: the
// three branches are the s=0, s=u and 0<s<u splits of the infimal
// convolution. Exact for gated-convex operands; falls back to the generic
// Convolve when either operand does not decompose. The result is a minimum
// of three gated-convex curves, not one: a longer convolution is the
// minimum over every nonempty subset of operands of their merged branch
// (MergeConvexParts; the k-ary identity is spelled out in the header of
// internal/analysis/thetasearch.go, which takes deviations branch by branch
// and never materialises the minimum).
func ConvolveGated(f, g Curve) Curve { return convolveGated(nil, f, g) }

// ConvolveGated is the arena variant of the package-level ConvolveGated.
func (a *Arena) ConvolveGated(f, g Curve) Curve { return convolveGated(a, f, g) }

func convolveGated(ar *Arena, f, g Curve) Curve {
	df, okF := decomposeGatedConvex(ar, f)
	dg, okG := decomposeGatedConvex(ar, g)
	if !okF || !okG {
		return convolve(ar, f, g)
	}
	chiF := shiftLeft(ar, f, df.Gate)
	chiG := shiftLeft(ar, g, dg.Gate)
	env := pointwise(ar, pointwise(ar, chiF, chiG, math.Min, minTail), convolveConvexParts(ar, df, dg), math.Min, minTail)
	return delay(ar, env, df.Gate+dg.Gate)
}
