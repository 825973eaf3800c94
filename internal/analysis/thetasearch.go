package analysis

import (
	"context"
	"math"

	"delaycalc/internal/minplus"
)

// thetaSearch minimizes, over theta vectors, the horizontal deviation
// between an aggregate envelope and the convolution of k per-position
// residual service curves. Every pass of analyzeChain searches through it;
// the residual is injected, and is always the one family of residual.go
// over the pass's per-position service curve (the line rate for Integrated,
// a class's rate-latency leftover for IntegratedSP). It replaces the naive
// enumeration that rebuilt every residual and redid the full convolution
// for every candidate vector:
//
//   - residual curves are memoized per (position, candidate) — a k=2
//     enumeration over c0 x c1 pairs builds c0 + c1 residuals, not
//     2*c0*c1;
//
//   - the k=2 enumeration uses the gated-convex closed form of the
//     convolution when every residual decomposes (always the case against
//     concave cross traffic): with residual_i = Delay_{g_i}(chi_i),
//
//     h(A, res_0 ⊗ res_1) = g_0 + g_1 +
//     max( h(A, chi_0), h(A, chi_1), h(A, J_0+J_1 + psi_0 ⊗ psi_1) ),
//
//     where psi_0 ⊗ psi_1 is an O(n) ascending-slope merge
//     (minplus.ConvolveConvexParts) — the per-candidate deviations
//     h(A, chi_i) are cached, so each pair costs one slope merge and one
//     deviation instead of a generic convolution. The identity is exact:
//     delays factor out of the pseudo-inverse whenever the aggregate is
//     positive on (0, eps) — checked, with fallback to the generic
//     convolution — and the lower pseudo-inverse of a min of
//     non-decreasing curves is the max of their pseudo-inverses;
//
//   - coordinate descent for k > 2 convolves the fixed prefix and suffix
//     of the scanned coordinate once per scan, so each candidate pays two
//     convolutions instead of k-1, and memoizes evaluated theta vectors
//     across passes;
//
//   - the k=2 closed form is an exact branch and bound: the two cached
//     deviations bound a pair from below at no cost, and pairs that cannot
//     lower the caller's clamped total are skipped, sequentially, so
//     neither result nor evaluated count depends on the core count;
//
//   - the k=2 generic fallback sweeps sequentially too; only the
//     coordinate-descent scans fan out across cores (parallelValuesArena),
//     their reduction sequential, replicating the serial argmin.
type thetaSearch struct {
	// ctx carries the cancellation signal and bg the soft budget into the
	// search, which stops between candidates once either is done. A
	// cancelled search returns a meaningless partial minimum; the owning
	// analyzer checks the context and discards it. One whose budget ran out
	// returns the minimum over what it evaluated, each a valid bound.
	ctx      context.Context
	bg       *budget // nil: none
	agg      minplus.Curve
	cands    [][]float64
	residual func(pos int, theta float64) minplus.Curve
	// The caller keeps min(minimize() + lat, ceil); the k=2 sweep skips
	// the pairs that cannot lower that total. ceil = +Inf means no ceiling.
	lat, ceil float64
	tm        *Timings // non-nil: receives the k=2 pair counts
	// ar is the owning chain's arena (nil for heap allocation): residual
	// curves, decompositions and prefix/suffix convolutions are drawn from
	// it. The arena is not goroutine-safe, so everything built from it is
	// built sequentially before a candidate fan-out; the parallel workers
	// only read those curves and allocate from their own pooled arenas.
	ar *minplus.Arena

	// res memoizes residuals per (position, candidate) by value, rows
	// drawn from the chain arena. The zero Curve marks an unset slot: over
	// either service (constant-rate, rate-latency) the residual has
	// strictly positive final slope under stability, so a genuine residual
	// is never the zero curve (if one ever were, the memo would merely
	// recompute it — still correct).
	res [][]minplus.Curve
}

// stop is the search's checkpoint, read before every evaluation.
func (ts *thetaSearch) stop() bool { return canceled(ts.ctx) || ts.bg.spent() }

// residualAt returns the memoized residual of candidate ci at position i.
func (ts *thetaSearch) residualAt(i, ci int) minplus.Curve {
	c := ts.res[i][ci]
	if c.NumPoints() == 0 && c.FinalSlope() == 0 {
		c = ts.residual(i, ts.cands[i][ci])
		ts.res[i][ci] = c
	}
	return c
}

// minimize returns the minimal horizontal deviation over the candidate
// grid (enumeration for k = 2, coordinate descent otherwise). A k = 2
// search that pruned may return more (+Inf if it evaluated nothing): what
// is exact is min(minimize() + lat, ceil), the value the caller keeps.
func (ts *thetaSearch) minimize() float64 {
	k := len(ts.cands)
	ts.res = make([][]minplus.Curve, k)
	for i := range ts.res {
		n := len(ts.cands[i])
		row := ts.ar.Curves(n)[:n]
		for j := range row {
			row[j] = minplus.Curve{} // arena memory is not zeroed
		}
		ts.res[i] = row
	}
	if k == 2 {
		return ts.enumeratePairs()
	}
	return ts.coordinateDescent()
}

// aggRisesImmediately reports whether the aggregate is positive on
// (0, eps), the condition under which h(A, Delay_g(E)) = g + h(A, E)
// holds exactly (the deviation at any t > 0 is then at least g, so the
// split never undercounts).
func (ts *thetaSearch) aggRisesImmediately() bool {
	return ts.agg.EvalRight(0) > minplus.Eps || ts.agg.RightSlope(0) > minplus.Eps
}

// enumeratePairs is the k = 2 enumeration.
func (ts *thetaSearch) enumeratePairs() float64 {
	n0, n1 := len(ts.cands[0]), len(ts.cands[1])
	for i := 0; i < 2; i++ {
		for ci := range ts.cands[i] {
			ts.residualAt(i, ci)
		}
	}
	// Gated-convex fast path: decompose every residual once and measure
	// its gate-stripped deviation; pairs then cost a slope merge plus one
	// deviation.
	type part struct {
		dec minplus.GatedConvex
		hd  float64 // h(agg, chi) with the gate stripped
	}
	fast := ts.aggRisesImmediately()
	parts := [2][]part{make([]part, n0), make([]part, n1)}
	for i := 0; i < 2 && fast; i++ {
		for ci := range ts.cands[i] {
			res := ts.residualAt(i, ci)
			dec, ok := ts.ar.DecomposeGatedConvex(res)
			if !ok {
				fast = false
				break
			}
			chi := ts.ar.ShiftLeft(res, dec.Gate)
			parts[i][ci] = part{dec, minplus.HorizontalDeviation(ts.agg, chi)}
		}
	}
	wa := minplus.GetArena()
	defer wa.Release()
	best, evaluated := math.Inf(1), 0
	if !fast { // generic convolution: nothing bounds a pair from below
		for ; evaluated < n0*n1 && !ts.stop(); evaluated++ {
			wa.Reset()
			beta := wa.Convolve(ts.residualAt(0, evaluated/n1), ts.residualAt(1, evaluated%n1))
			if v := minplus.HorizontalDeviation(ts.agg, beta); v < best {
				best = v
			}
		}
		ts.count(n0*n1, evaluated)
		return best
	}
	// Exact branch and bound. A pair is worth
	// g0 + g1 + max(hd0, hd1, h(A, W)) >= lb = g0 + g1 + max(hd0, hd1),
	// in floating point as on paper (+ and max are monotone), so a pair
	// with lb + lat >= the best total so far (at first: the ceiling) cannot
	// lower it. The pair of smallest lb goes first, the rest in index order
	// on this goroutine: what is evaluated depends only on the inputs.
	lb := func(i0, i1 int) float64 {
		a, b := &parts[0][i0], &parts[1][i1]
		return a.dec.Gate + b.dec.Gate + math.Max(a.hd, b.hd)
	}
	f0, f1, least := 0, 0, math.Inf(1)
	for i0 := 0; i0 < n0; i0++ {
		for i1 := 0; i1 < n1; i1++ {
			if l := lb(i0, i1); l < least {
				f0, f1, least = i0, i1, l
			}
		}
	}
	total := ts.ceil
	visit := func(i0, i1 int) {
		if lb(i0, i1)+ts.lat >= total || ts.stop() {
			return
		}
		wa.Reset()
		a, b := &parts[0][i0], &parts[1][i1]
		w := wa.ConvolveConvexParts(a.dec, b.dec)
		hd := math.Max(math.Max(a.hd, b.hd), minplus.HorizontalDeviation(ts.agg, w))
		v := a.dec.Gate + b.dec.Gate + hd
		evaluated++
		if v < best {
			best = v
		}
		if v+ts.lat < total {
			total = v + ts.lat
		}
	}
	visit(f0, f1)
	for i0 := 0; i0 < n0; i0++ {
		for i1 := 0; i1 < n1; i1++ {
			if i0 != f0 || i1 != f1 {
				visit(i0, i1)
			}
		}
	}
	ts.count(n0*n1, evaluated)
	return best
}

// count reports one k=2 search to the collector, if any.
func (ts *thetaSearch) count(pairs, evaluated int) {
	if ts.tm != nil {
		ts.tm.ThetaPairs.Add(int64(pairs))
		ts.tm.ThetaEvaluated.Add(int64(evaluated))
	}
}

// coordinateDescent scans one coordinate at a time from the all-zero
// vector (candidate index 0 is always theta = 0), keeping the best
// strictly improving candidate of each scan, up to three passes — the same
// search the pre-overhaul engine ran, with prefix/suffix convolutions
// hoisted out of the candidate loop and evaluated vectors memoized.
func (ts *thetaSearch) coordinateDescent() float64 {
	k := len(ts.cands)
	idx := make([]int, k)
	seen := map[string]float64{}
	evalVec := func(v []int) float64 {
		key := vecKey(v)
		if d, ok := seen[key]; ok {
			return d
		}
		beta := ts.residualAt(0, v[0])
		for i := 1; i < k; i++ {
			beta = ts.ar.Convolve(beta, ts.residualAt(i, v[i]))
		}
		d := minplus.HorizontalDeviation(ts.agg, beta)
		seen[key] = d
		return d
	}
	best := evalVec(idx)
	for pass := 0; pass < 3; pass++ {
		improved := false
		for i := 0; i < k; i++ {
			if ts.stop() {
				return best
			}
			// Build every residual of the scanned coordinate before the
			// fan-out: residualAt writes the chain arena and the memo
			// table, which the parallel workers may only read.
			for ci := range ts.cands[i] {
				ts.residualAt(i, ci)
			}
			// Convolve the fixed prefix and suffix once; min-plus
			// convolution is associative, so prefix ⊗ res_i ⊗ suffix is
			// the same curve as the left fold.
			var pre, suf *minplus.Curve
			if i > 0 {
				b := ts.residualAt(0, idx[0])
				for j := 1; j < i; j++ {
					b = ts.ar.Convolve(b, ts.residualAt(j, idx[j]))
				}
				pre = &b
			}
			if i+1 < k {
				b := ts.residualAt(i+1, idx[i+1])
				for j := i + 2; j < k; j++ {
					b = ts.ar.Convolve(b, ts.residualAt(j, idx[j]))
				}
				suf = &b
			}
			// evalCand runs concurrently: it only reads seen (no concurrent
			// writes happen during the fan-out), and a memo miss recomputes
			// the pure evaluation — the identical value the serial code
			// would have cached.
			evalCand := func(wa *minplus.Arena, ci int) float64 {
				v := append([]int(nil), idx...)
				v[i] = ci
				if d, ok := seen[vecKey(v)]; ok {
					return d
				}
				beta := ts.residualAt(i, ci)
				if pre != nil {
					beta = wa.Convolve(*pre, beta)
				}
				if suf != nil {
					beta = wa.Convolve(beta, *suf)
				}
				return minplus.HorizontalDeviation(ts.agg, beta)
			}
			vals := parallelValuesArena(ts.ctx, len(ts.cands[i]), evalCand)
			// Persist the scan's evaluations into the memo sequentially.
			wb := append([]int(nil), idx...)
			for ci := range ts.cands[i] {
				wb[i] = ci
				seen[vecKey(wb)] = vals[ci]
			}
			bestHere := idx[i]
			for ci := range ts.cands[i] {
				if ci == bestHere {
					continue
				}
				if d := vals[ci]; d < best {
					best = d
					bestHere = ci
					improved = true
				}
			}
			idx[i] = bestHere
		}
		if !improved {
			break
		}
	}
	return best
}

// vecKey encodes a candidate-index vector as a map key.
func vecKey(v []int) string {
	b := make([]byte, 0, 2*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8))
	}
	return string(b)
}
