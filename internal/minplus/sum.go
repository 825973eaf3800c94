package minplus

import "sort"

// Cursor evaluates one curve at a non-decreasing sequence of arguments in
// amortized constant time per call by remembering the active segment
// between calls. It returns exactly what Curve.Eval / Curve.EvalRight
// return; if an argument moves backwards the cursor transparently rewinds
// (correct, just no longer amortized-constant).
type Cursor struct {
	c     Curve
	left  int // lower bound for the next Eval search
	right int // lower bound for the next EvalRight search
	lastX float64
}

// NewCursor returns a cursor over c positioned at the origin.
func NewCursor(c Curve) Cursor {
	c.mustValid()
	return Cursor{c: c}
}

// rewind restarts both scan positions when the argument sequence goes
// backwards.
func (cu *Cursor) rewind(x float64) {
	if x < cu.lastX {
		cu.left, cu.right = 0, 0
	}
	cu.lastX = x
}

// Eval returns the left-continuous value f(x), identically to Curve.Eval.
func (cu *Cursor) Eval(x float64) float64 {
	cu.rewind(x)
	pts := cu.c.pts
	if x <= 0 {
		return pts[0].Y
	}
	// Advance to the first index whose X is >= x or within tolerance of x
	// (the same index Curve.Eval reaches via binary search plus backup).
	j := cu.left
	for j < len(pts) && pts[j].X < x && !almostEqual(pts[j].X, x) {
		j++
	}
	cu.left = j
	if j < len(pts) && almostEqual(pts[j].X, x) {
		return pts[j].Y
	}
	i := j - 1
	if i < 0 {
		return pts[0].Y
	}
	return pts[i].Y + cu.c.segSlope(i)*(x-pts[i].X)
}

// EvalRight returns the right limit f(x+), identically to Curve.EvalRight.
func (cu *Cursor) EvalRight(x float64) float64 {
	cu.rewind(x)
	pts := cu.c.pts
	if x < 0 {
		x = 0
	}
	// Advance to the first index whose X is > x and not within tolerance.
	j := cu.right
	for j < len(pts) && (pts[j].X <= x || almostEqual(pts[j].X, x)) {
		j++
	}
	cu.right = j
	i := j - 1
	if i < 0 {
		return pts[0].Y
	}
	return pts[i].Y + cu.c.segSlope(i)*(x-pts[i].X)
}

// SumN returns the exact pointwise sum of any number of curves in a single
// k-way sweep over the union of the operands' breakpoint abscissae, using
// one cursor per operand. The piecewise sum is linear between union
// breakpoints, so evaluating value and right limit at each union abscissa
// reconstructs the sum exactly; total cost is O(B log B) for B total
// breakpoints, against the quadratic pairwise fold it replaces. Operands
// whose breakpoints all sit at the origin (affine curves, token buckets —
// the overwhelmingly common envelope shape) take a closed-form fast path
// with no sweep at all. A list made mostly of a few curves repeated by
// storage (see Curve.SameStorage) sweeps each distinct curve once and adds
// the ordinates in operand order, so the result is the same to the bit.
// SumN() is the zero curve.
func SumN(curves ...Curve) Curve { return sumN(nil, curves) }

// SumN is the arena variant of the package-level SumN: scratch buffers and
// the result curve are drawn from the arena.
func (a *Arena) SumN(curves ...Curve) Curve { return sumN(a, curves) }

// SumNSlice sums a slice of curves into the arena without the variadic
// copy the ... form forces at call sites that already hold a slice.
func (a *Arena) SumNSlice(curves []Curve) Curve { return sumN(a, curves) }

func sumN(ar *Arena, curves []Curve) Curve {
	switch len(curves) {
	case 0:
		return Zero()
	case 1:
		curves[0].mustValid()
		return curves[0]
	}
	slope := 0.0
	total := 0
	allOrigin := true
	for i := range curves {
		curves[i].mustValid()
		slope += curves[i].slope
		total += len(curves[i].pts)
		if curves[i].pts[len(curves[i].pts)-1].X > Eps {
			allOrigin = false
		}
	}
	if allOrigin {
		// Every operand is v0 at 0, then affine from its right limit: the
		// sum is the same shape with summed ordinates and slope.
		v0, vr := 0.0, 0.0
		for i := range curves {
			p := curves[i].pts
			v0 += p[0].Y
			vr += p[len(p)-1].Y
		}
		pts := ar.points(2)
		pts = append(pts, Point{0, v0})
		if !almostEqual(v0, vr) {
			pts = append(pts, Point{0, vr})
		}
		return Curve{pts: pts, slope: slope}
	}
	// Operands on one storage are one curve. When a few curves make up
	// most of the list, the abscissa union and the cursors run over the
	// distinct ones (uniq) and grp maps every operand to its distinct
	// curve, so the ordinates below are still added in operand order. A
	// repeat only adds copies of abscissae already in the union, which the
	// dedup drops whichever copy comes first: the kept set is the same.
	var uniqBuf [sumGroupMax]Curve
	uniq, grp := curves, []uint8(nil)
	if n := distinctByStorage(curves, &uniqBuf); n > 0 {
		uniq, grp, total = uniqBuf[:n], ar.uint8s(len(curves)), 0
		for i := range curves {
			grp = append(grp, storageIndex(uniq, curves[i]))
		}
		for i := range uniq {
			total += len(uniq[i].pts)
		}
	}
	// Union of distinct breakpoint abscissae.
	xs := ar.floats(total)
	for i := range uniq {
		pts := uniq[i].pts
		for j, p := range pts {
			if j > 0 && almostEqual(p.X, pts[j-1].X) {
				continue
			}
			xs = append(xs, p.X)
		}
	}
	sort.Float64s(xs)
	dedup := xs[:0]
	for _, x := range xs {
		if len(dedup) == 0 || !almostEqual(dedup[len(dedup)-1], x) {
			dedup = append(dedup, x)
		}
	}
	xs = dedup

	cursors := ar.cursors(len(uniq))
	for i := range uniq {
		cursors[i] = NewCursor(uniq[i])
	}
	pts := ar.points(2 * len(xs))
	var at, atRight [sumGroupMax]float64 // grouped: each distinct curve's f(x), f(x+)
	for _, x := range xs {
		v, vr := 0.0, 0.0
		if grp == nil {
			for i := range cursors {
				v += cursors[i].Eval(x)
				vr += cursors[i].EvalRight(x)
			}
		} else {
			for k := range cursors {
				at[k], atRight[k] = cursors[k].Eval(x), cursors[k].EvalRight(x)
			}
			for _, k := range grp {
				v += at[k]
				vr += atRight[k]
			}
		}
		pts = append(pts, Point{x, v})
		if !almostEqual(v, vr) {
			pts = append(pts, Point{x, vr})
		}
	}
	out := Curve{pts: pts, slope: slope}
	out.normalize()
	return out
}

// sumGroupMax bounds the distinct curves SumN groups its operands into.
const sumGroupMax = 8

// distinctByStorage fills uniq with the distinct curves of curves, by
// storage, in first-seen order, and returns how many there are when the
// list is worth grouping: at most sumGroupMax distinct curves, and at least
// half the operands repeats. Otherwise it returns 0, having looked at no
// more than sumGroupMax+1 distinct curves, so an all-distinct list pays a
// bounded scan of its first operands.
func distinctByStorage(curves []Curve, uniq *[sumGroupMax]Curve) int {
	n := 0
	for i := range curves {
		if storageIndex(uniq[:n], curves[i]) < uint8(n) {
			continue
		}
		if n == sumGroupMax {
			return 0
		}
		uniq[n] = curves[i]
		n++
	}
	if 2*n > len(curves) {
		return 0
	}
	return n
}

// storageIndex returns the index of c among uniq by storage, len(uniq) when
// it is not there.
func storageIndex(uniq []Curve, c Curve) uint8 {
	for k := range uniq {
		if uniq[k].SameStorage(c) {
			return uint8(k)
		}
	}
	return uint8(len(uniq))
}
