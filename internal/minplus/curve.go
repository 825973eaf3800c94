// Package minplus implements exact min-plus (network calculus) algebra on
// piecewise-linear curves.
//
// A Curve is a real-valued, piecewise-linear function defined on [0, +inf),
// represented by a finite list of breakpoints plus a final slope that
// extends the last segment to infinity. Curves are left-continuous: at a
// discontinuity x0 the value f(x0) is the limit from the left, which is the
// convention used throughout deterministic network calculus (arrival
// functions count traffic in the half-open interval [0, t)).
//
// A vertical jump is represented by two breakpoints sharing the same X; the
// first carries the value at X, the second the right limit. Jumps are upward
// on non-decreasing curves; a difference such as Sub can also jump down.
//
// All operations in this package are exact for piecewise-linear inputs: the
// breakpoints of results such as min-plus convolutions, compositions and
// pseudo-inverses are located on arithmetic combinations of the input
// breakpoints, so no sampling or discretization error is introduced.
//
// Curves are immutable: every operation builds its result on fresh storage
// and never writes through an input. So storage identity implies equality:
// two curves on the same breakpoint storage, of the same length and final
// slope, are one curve (Curve.SameStorage), whoever holds them. Kernels use
// that to compute a repeated operand once (SumN, Arena.ShiftLeftShared),
// and the analysis to keep one copy of an envelope many connections share.
package minplus

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Eps is the absolute tolerance used when comparing coordinates. Two values
// closer than Eps (scaled by magnitude) are considered equal.
const Eps = 1e-9

// almostEqual reports whether a and b are equal within tolerance, scaling
// the tolerance with the magnitude of the operands: diff <= Eps*max(|a|,
// |b|), spelled as two comparisons (scaling by a positive constant is
// monotone, so Eps*max(x, y) is max(Eps*x, Eps*y) to the bit) because
// math.Max's NaN and signed-zero handling was a third of this function's
// cost and kept it from inlining. A NaN operand makes diff NaN and every
// comparison false, as before.
func almostEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= Eps || diff <= Eps*math.Abs(a) || diff <= Eps*math.Abs(b)
}

// Point is a breakpoint of a piecewise-linear curve.
type Point struct {
	X, Y float64
}

// Curve is a piecewise-linear function on [0, +inf). The zero value is not
// a valid Curve; construct curves with New or the builder functions.
type Curve struct {
	pts   []Point
	slope float64 // slope after the last breakpoint
}

// New constructs a curve from breakpoints and a final slope. The points are
// sorted, duplicate and collinear points are merged, and vertical jumps
// (points sharing an X) are preserved. The first breakpoint must be at
// X == 0; New panics otherwise, and on NaN or infinite coordinates.
func New(pts []Point, finalSlope float64) Curve {
	if len(pts) == 0 {
		panic("minplus: New called with no breakpoints")
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	sortPoints(cp)
	return newFromOwned(cp, finalSlope)
}

// newFromOwned builds a curve taking ownership of pts (no defensive copy),
// which must already be in curve order: by X, and at a shared X the value
// before the right limit, whichever is larger. Validation and normalization
// match New; internal operations use it to construct results directly into
// arena-allocated buffers.
func newFromOwned(pts []Point, finalSlope float64) Curve {
	if len(pts) == 0 {
		panic("minplus: New called with no breakpoints")
	}
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			panic(fmt.Sprintf("minplus: non-finite breakpoint %+v", p))
		}
	}
	if math.IsNaN(finalSlope) || math.IsInf(finalSlope, 0) {
		panic("minplus: non-finite final slope")
	}
	if !almostEqual(pts[0].X, 0) || pts[0].X < 0 {
		panic(fmt.Sprintf("minplus: first breakpoint must be at X=0, got X=%g", pts[0].X))
	}
	pts[0].X = 0
	c := Curve{pts: pts, slope: finalSlope}
	c.normalize()
	return c
}

// pointLess is the breakpoint ordering: by X, then by Y (so the lower
// point of a jump carries the left-continuous value).
func pointLess(a, b Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// sortPoints sorts New's caller-supplied breakpoints by (X, Y) in place
// without the reflection swapper that sort.Slice allocates; the sorted check
// makes already-ordered input a single linear scan. A caller's jump is read
// as upward, so a curve with a downward jump cannot be spelled through New.
// Internal constructions (evaluator reconstructions, shifts, gates) never
// come here: they emit their points in curve order, value before right
// limit, so a downward jump — a cross burst subtracted from a service
// curve — survives instead of being flipped into an upward one.
func sortPoints(pts []Point) {
	sorted := true
	for i := 1; i < len(pts); i++ {
		if pointLess(pts[i], pts[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		j := i - 1
		for j >= 0 && pointLess(p, pts[j]) {
			pts[j+1] = pts[j]
			j--
		}
		pts[j+1] = p
	}
}

// normalize collapses duplicate X runs to at most two points (value and
// right limit), merges collinear interior points, and drops a final
// breakpoint whose incoming slope equals the final slope.
func (c *Curve) normalize() {
	// Collapse runs of equal X to first (value) and last (right limit).
	out := c.pts[:0]
	for i := 0; i < len(c.pts); {
		j := i
		for j+1 < len(c.pts) && almostEqual(c.pts[j+1].X, c.pts[i].X) {
			j++
		}
		first, last := c.pts[i], c.pts[j]
		last.X = first.X
		out = append(out, first)
		if !almostEqual(first.Y, last.Y) {
			out = append(out, last)
		}
		i = j + 1
	}
	// Merge collinear interior points, in place: the write index never
	// passes the read index, and the popped entries are only re-read from
	// the already-written prefix.
	merged := out[:0]
	for _, p := range out {
		for len(merged) >= 2 {
			a, b := merged[len(merged)-2], merged[len(merged)-1]
			if almostEqual(a.X, b.X) || almostEqual(b.X, p.X) {
				break // jumps are never merged away
			}
			s1 := (b.Y - a.Y) / (b.X - a.X)
			s2 := (p.Y - b.Y) / (p.X - b.X)
			if !almostEqual(s1, s2) {
				break
			}
			merged = merged[:len(merged)-1]
		}
		merged = append(merged, p)
	}
	// Drop a trailing point that merely continues the final slope.
	for len(merged) >= 2 {
		a, b := merged[len(merged)-2], merged[len(merged)-1]
		if almostEqual(a.X, b.X) {
			break
		}
		s := (b.Y - a.Y) / (b.X - a.X)
		if !almostEqual(s, c.slope) {
			break
		}
		merged = merged[:len(merged)-1]
	}
	c.pts = merged
}

// SameStorage reports whether c and d are one curve: the same breakpoint
// storage, the same number of points and the same final slope, to the bit.
// Such curves are equal, since curves are immutable (see the package
// comment); equal curves on separate storage are not the same. Equal
// compares by value.
func (c Curve) SameStorage(d Curve) bool {
	return len(c.pts) == len(d.pts) && len(c.pts) > 0 && &c.pts[0] == &d.pts[0] &&
		math.Float64bits(c.slope) == math.Float64bits(d.slope)
}

// Points returns a copy of the curve's breakpoints.
func (c Curve) Points() []Point {
	cp := make([]Point, len(c.pts))
	copy(cp, c.pts)
	return cp
}

// PointAt returns the i-th breakpoint without copying the breakpoint
// slice. Use it with NumPoints to iterate allocation-free.
func (c Curve) PointAt(i int) Point { return c.pts[i] }

// NumPoints returns the number of breakpoints, for iteration with PointAt
// without the defensive copy Points makes.
func (c Curve) NumPoints() int { return len(c.pts) }

// FinalSlope returns the slope of the curve after its last breakpoint.
func (c Curve) FinalSlope() float64 { return c.slope }

// LastX returns the X coordinate of the last breakpoint.
func (c Curve) LastX() float64 { return c.pts[len(c.pts)-1].X }

// valid reports whether the curve was built by a constructor.
func (c Curve) valid() bool { return len(c.pts) > 0 }

func (c Curve) mustValid() {
	if !c.valid() {
		panic("minplus: use of zero-value Curve; construct with New or a builder")
	}
}

// segSlope returns the slope of the segment starting at breakpoint index i,
// where i must index the last point of its X-run.
func (c Curve) segSlope(i int) float64 {
	k := i + 1
	for k < len(c.pts) && almostEqual(c.pts[k].X, c.pts[i].X) {
		k++
	}
	if k >= len(c.pts) {
		return c.slope
	}
	return (c.pts[k].Y - c.pts[i].Y) / (c.pts[k].X - c.pts[i].X)
}

// Eval returns the (left-continuous) value f(x). Negative arguments are
// clamped to zero.
func (c Curve) Eval(x float64) float64 {
	c.mustValid()
	if x <= 0 {
		return c.pts[0].Y
	}
	// First index with X >= x, treating X within tolerance of x as at x.
	j := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].X >= x })
	for j > 0 && almostEqual(c.pts[j-1].X, x) {
		j--
	}
	if j < len(c.pts) && almostEqual(c.pts[j].X, x) {
		return c.pts[j].Y // first point at x carries the left-continuous value
	}
	// The active segment starts at the last point with X < x.
	i := j - 1
	if i < 0 {
		return c.pts[0].Y
	}
	return c.pts[i].Y + c.segSlope(i)*(x-c.pts[i].X)
}

// EvalRight returns the right limit f(x+) = lim_{u -> x, u > x} f(u).
func (c Curve) EvalRight(x float64) float64 {
	c.mustValid()
	if x < 0 {
		x = 0
	}
	i := c.rightIndex(x)
	if i < 0 {
		// x below first breakpoint (only possible through rounding).
		return c.pts[0].Y
	}
	return c.pts[i].Y + c.segSlope(i)*(x-c.pts[i].X)
}

// rightIndex returns the last breakpoint index with X <= x within
// tolerance — the point whose segment holds the values just right of
// x >= 0 — or -1 when there is none.
func (c Curve) rightIndex(x float64) int {
	j := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].X > x })
	for j < len(c.pts) && almostEqual(c.pts[j].X, x) {
		j++
	}
	return j - 1
}

// evalRightSlope returns EvalRight(x) and RightSlope(x), bit for bit, from
// the one index search the two share.
func (c Curve) evalRightSlope(x float64) (v, slope float64) {
	if x < 0 {
		x = 0
	}
	i := c.rightIndex(x)
	if i < 0 {
		return c.pts[0].Y, c.segSlope(c.lastOfRun(0))
	}
	slope = c.segSlope(i)
	v = c.pts[i].Y + slope*(x-c.pts[i].X)
	if last := c.lastOfRun(i); last != i {
		slope = c.segSlope(last)
	}
	return v, slope
}

// IsNonDecreasing reports whether the curve never decreases. Dips within
// floating-point tolerance (relative to the magnitude of the values, so
// that curves expressed in bits-per-second scales behave like unit-scale
// ones) do not count as decreases.
func (c Curve) IsNonDecreasing() bool {
	c.mustValid()
	if c.slope < -Eps {
		return false
	}
	for i := 1; i < len(c.pts); i++ {
		if c.pts[i].Y < c.pts[i-1].Y && !almostEqual(c.pts[i].Y, c.pts[i-1].Y) {
			return false
		}
	}
	return true
}

// IsContinuous reports whether the curve has no vertical jumps.
func (c Curve) IsContinuous() bool {
	c.mustValid()
	for i := 1; i < len(c.pts); i++ {
		if almostEqual(c.pts[i].X, c.pts[i-1].X) {
			return false
		}
	}
	return true
}

// lastOfRun returns the index of the last point sharing pts[i].X.
func (c Curve) lastOfRun(i int) int {
	for i+1 < len(c.pts) && almostEqual(c.pts[i+1].X, c.pts[i].X) {
		i++
	}
	return i
}

// xBreaks returns the distinct breakpoint X coordinates.
func (c Curve) xBreaks() []float64 {
	xs := make([]float64, 0, len(c.pts))
	for i, p := range c.pts {
		if i > 0 && almostEqual(p.X, c.pts[i-1].X) {
			continue
		}
		xs = append(xs, p.X)
	}
	return xs
}

// Equal reports whether two curves describe the same function within
// tolerance. It compares values and one-sided limits at the union of
// breakpoints, a probe beyond both curves' last breakpoints, and the final
// slopes.
func (c Curve) Equal(o Curve) bool {
	c.mustValid()
	o.mustValid()
	if !almostEqual(c.slope, o.slope) {
		return false
	}
	xs := mergeXs(c.xBreaks(), o.xBreaks())
	far := xs[len(xs)-1] + 1
	xs = append(xs, far)
	for _, x := range xs {
		if !almostEqual(c.Eval(x), o.Eval(x)) || !almostEqual(c.EvalRight(x), o.EvalRight(x)) {
			return false
		}
	}
	return true
}

// String renders the curve breakpoints and final slope compactly.
func (c Curve) String() string {
	if !c.valid() {
		return "Curve{}"
	}
	var b strings.Builder
	b.WriteString("Curve{")
	for i, p := range c.pts {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "(%g,%g)", p.X, p.Y)
	}
	fmt.Fprintf(&b, " slope %g}", c.slope)
	return b.String()
}

// mergeXs merges two ascending float slices, removing near-duplicates.
func mergeXs(a, b []float64) []float64 {
	return mergeXsArena(nil, a, b)
}

// mergeXsArena is mergeXs with the output drawn from an arena.
func mergeXsArena(ar *Arena, a, b []float64) []float64 {
	out := ar.floats(len(a) + len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Float64s(out)
	dedup := out[:0]
	for _, x := range out {
		if len(dedup) == 0 || !almostEqual(dedup[len(dedup)-1], x) {
			dedup = append(dedup, x)
		}
	}
	return dedup
}

// mergeBreaks returns the near-deduplicated union of the distinct
// breakpoint abscissae of f and g — the same result as
// mergeXs(f.xBreaks(), g.xBreaks()) computed by a direct two-pointer merge
// over the breakpoint arrays, with a single output buffer.
func mergeBreaks(ar *Arena, f, g Curve) []float64 {
	out := ar.floats(len(f.pts) + len(g.pts))
	fp, gp := f.pts, g.pts
	i, j := 0, 0
	for i < len(fp) || j < len(gp) {
		var x float64
		if j >= len(gp) || (i < len(fp) && fp[i].X <= gp[j].X) {
			x = fp[i].X
			i++
			for i < len(fp) && almostEqual(fp[i].X, x) {
				i++
			}
		} else {
			x = gp[j].X
			j++
			for j < len(gp) && almostEqual(gp[j].X, x) {
				j++
			}
		}
		if len(out) == 0 || !almostEqual(out[len(out)-1], x) {
			out = append(out, x)
		}
	}
	return out
}

// fromEvaluator reconstructs a piecewise-linear curve from its values at a
// superset ts of its true breakpoints, a left-continuous evaluator, and the
// final slope beyond the last candidate. Jumps located at candidate points
// are recovered by probing segment midpoints. ts is sorted and consumed in
// place; with a non-nil arena the result curve aliases arena memory.
func fromEvaluator(ar *Arena, ts []float64, eval func(float64) float64, finalSlope float64) Curve {
	sort.Float64s(ts)
	dedup := ts[:0]
	for _, t := range ts {
		if t < 0 {
			continue
		}
		if len(dedup) == 0 || !almostEqual(dedup[len(dedup)-1], t) {
			dedup = append(dedup, t)
		}
	}
	ts = dedup
	if len(ts) == 0 || !almostEqual(ts[0], 0) {
		withZero := ar.floats(len(ts) + 1)
		withZero = append(withZero, 0)
		ts = append(withZero, ts...)
	}
	pts := ar.points(2 * len(ts))
	vals := ar.floats(len(ts))[:len(ts)]
	for i, t := range ts {
		vals[i] = eval(t)
	}
	for i, t := range ts {
		pts = append(pts, Point{t, vals[i]})
		if i+1 < len(ts) {
			mid := (t + ts[i+1]) / 2
			vm := eval(mid)
			// If the function is linear on (t, t+1) the value at mid
			// determines the right limit at t; a mismatch with vals[i]
			// reveals a jump at t.
			slope := (vals[i+1] - vm) / (ts[i+1] - mid)
			rightLim := vm - slope*(mid-t)
			if !almostEqual(rightLim, vals[i]) {
				pts = append(pts, Point{t, rightLim})
			}
		} else {
			// Tail: probe one unit out to find the right limit at the
			// last candidate under the declared final slope.
			vm := eval(t + 1)
			rightLim := vm - finalSlope*1
			if !almostEqual(rightLim, vals[i]) {
				pts = append(pts, Point{t, rightLim})
			}
		}
	}
	return newFromOwned(pts, finalSlope)
}

// RightSlope returns the slope of the curve on the segment immediately to
// the right of x (the right derivative, ignoring any jump at x itself).
func (c Curve) RightSlope(x float64) float64 {
	c.mustValid()
	if x < 0 {
		x = 0
	}
	return c.segSlope(c.lastOfRun(max(c.rightIndex(x), 0)))
}
