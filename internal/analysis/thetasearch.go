package analysis

import (
	"context"
	"encoding/binary"
	"math"
	"math/bits"

	"delaycalc/internal/minplus"
)

// thetaSearch minimizes, over theta vectors, the horizontal deviation
// between an aggregate envelope and the convolution of k per-position
// residual service curves. Every pass of analyzeChain searches through it;
// the residual is injected, and is always the one family of residual.go
// over the pass's per-position service curve (the line rate on a FIFO
// chain, a class's rate-latency leftover on a static-priority one). It replaces the naive
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
//     h(A, chi_i) are memoized, so each pair costs one slope merge and one
//     deviation instead of a generic convolution. The identity is exact:
//     delays factor out of the pseudo-inverse whenever the aggregate is
//     positive on (0, eps) — checked, with fallback to the generic
//     convolution — and the lower pseudo-inverse of a min of
//     non-decreasing curves is the max of their pseudo-inverses;
//
//   - coordinate descent for k > 2 runs on the k-ary form of the same
//     identity and never convolves decomposable residuals generically.
//     With chi_i(0) = 0 and chi_i(u) = J_i + psi_i(u) for u > 0, splitting
//     the infimal convolution by the set S of coordinates that receive a
//     positive share (the others contribute chi_j(0) = 0; psi_i is
//     continuous with psi_i(0) = 0, so positive and non-negative shares
//     have the same infimum) gives
//
//     chi_1 ⊗ ... ⊗ chi_k = min over nonempty S of W_S,
//     W_S(u) = sum_{i in S} J_i + (⊗_{i in S} psi_i)(u)  for u > 0,
//
//     each W_S a jump and a convex section again (gates and jumps add,
//     sections merge by slope, cut at the smallest tail:
//     minplus.MergeConvexParts), and therefore
//
//     h(A, ⊗ res_i) = sum g_i + max over nonempty S of h(A, W_S);
//
//     the k = 2 formula above is the |S| <= 2 case. A scan of coordinate
//     i builds the branches of the fixed coordinates once (closedFormScan);
//     a candidate then pays one slope merge and one deviation per fixed
//     branch instead of two generic convolutions. Two prunings keep the
//     branch set small. Zero-jump domination: if J_j = 0, W_{S+j} <= W_S
//     pointwise (psi_j(0) = 0), so only the S that contain every zero-jump
//     coordinate are kept — the descent starts at all-theta-0, where every
//     jump is 0, from one branch; what is left is 2^(coordinates with a
//     jump), and a scan whose branches outnumber the branch curves the
//     generic convolutions would build takes those instead. Early exit:
//     the running sum g + max is a lower bound of the candidate's value in
//     floating point as on paper (+ and max are monotone), so once it
//     reaches the scan's incumbent — read once, before the fan-out — the
//     candidate cannot be strictly improving and the rest of its branches
//     are skipped. Memoising that lower bound is exact: the incumbent only
//     decreases, so every later "d < best" reads false for the bound as it
//     would for the value, and the best returned is always a value that
//     was evaluated in full;
//
//   - evaluated theta vectors are memoized across scans and passes under a
//     packed integer key;
//
//   - the k=2 closed form is an exact branch and bound: the two
//     candidates' deviations bound a pair from below, and pairs that cannot
//     lower the caller's clamped total are skipped, sequentially, so
//     neither result nor evaluated count depends on the core count. A
//     candidate's deviation is itself computed only once a pair holding it
//     survives that test on floors: chi_i(u) <= J_i + S_i*u for u > 0 (S_i
//     the final slope of the convex section, its steepest), so
//     h(A, chi_i) >= max over A's breakpoints (x, y) of (y - J_i)/S_i - x,
//     one pass over the aggregate's few points (minplus.DeviationFloor,
//     with a margin that keeps it below the computed deviation). Most
//     candidates only ever appear in pairs the floors rule out;
//
//   - a search whose residuals do not all decompose, or whose aggregate
//     does not rise immediately, convolves generically (k=2: a sequential
//     sweep; k>2: the fixed prefix and suffix of the scanned coordinate
//     convolved once per scan); only the coordinate-descent scans fan out
//     across cores (fanOut), their reduction sequential, replicating the
//     serial argmin.
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
	tm        *Timings // non-nil: receives the pair and branch counts
	// ar is the owning chain's arena (nil for heap allocation): residual
	// curves, decompositions, a scan's branch set and prefix/suffix
	// convolutions are drawn from it. The arena is not goroutine-safe, so
	// everything built from it is built sequentially before a candidate
	// fan-out; the parallel workers only read those curves and allocate
	// from their own pooled arenas.
	ar *minplus.Arena

	// The per-candidate tables, one slot per (position, candidate): they
	// hold the positions' candidates back to back, position i's from slot
	// off[i], and all three are drawn from the chain arena by decompose. res memoizes the
	// residuals by value. The zero Curve marks an unset slot: over either
	// service (constant-rate, rate-latency) the residual has strictly
	// positive final slope under stability, so a genuine residual is never
	// the zero curve (if one ever were, the memo would merely recompute it
	// — still correct). dec and hd are the residual as the closed forms see
	// it: its gated-convex form and the deviation h(agg, chi) of the curve
	// with its gate stripped. A k = 2 search fills hd on demand (hdAt; NaN
	// marks an unset slot) and prices pairs first with floor, a lower bound
	// of hd from the gated-convex form alone (minplus.DeviationFloor).
	res   []minplus.Curve
	dec   []minplus.GatedConvex
	hd    []float64
	floor []float64
	// deviations counts the hd slots computed.
	deviations int
	// off has one more entry than cands, the tables' length; offBuf backs
	// it for chains of up to seven servers.
	off    []int
	offBuf [8]int
}

// stop is the search's checkpoint, read before every evaluation.
func (ts *thetaSearch) stop() bool { return canceled(ts.ctx) || ts.bg.spent() }

// residualAt returns the memoized residual of candidate ci at position i.
func (ts *thetaSearch) residualAt(i, ci int) minplus.Curve {
	s := ts.off[i] + ci
	c := ts.res[s]
	if c.NumPoints() == 0 && c.FinalSlope() == 0 {
		c = ts.residual(i, ts.cands[i][ci])
		ts.res[s] = c
	}
	return c
}

// minimize returns the minimal horizontal deviation over the candidate
// grid (enumeration for k = 2, coordinate descent otherwise). A k = 2
// search that pruned may return more (+Inf if it evaluated nothing): what
// is exact is min(minimize() + lat, ceil), the value the caller keeps.
func (ts *thetaSearch) minimize() float64 {
	closed := ts.decompose()
	switch {
	case len(ts.cands) == 2:
		return ts.enumeratePairs(closed)
	case closed:
		return ts.coordinateDescent(ts.closedFormScan)
	}
	return ts.coordinateDescent(ts.genericScan)
}

// aggRisesImmediately reports whether the aggregate is positive on
// (0, eps), the condition under which h(A, Delay_g(E)) = g + h(A, E)
// holds exactly (the deviation at any t > 0 is then at least g, so the
// split never undercounts).
func (ts *thetaSearch) aggRisesImmediately() bool {
	return ts.agg.EvalRight(0) > minplus.Eps || ts.agg.RightSlope(0) > minplus.Eps
}

// decompose draws the per-candidate tables from the chain arena and builds
// every candidate's residual and, while the closed forms apply, its
// gated-convex form and then either its gate-stripped deviation (k > 2,
// whose scans fan out and may not draw from the chain arena) or its floor
// (k = 2, which computes the deviation only for a pair the floor does not
// rule out). It reports whether the closed forms apply to the whole
// search: the aggregate rises immediately and every residual decomposes.
func (ts *thetaSearch) decompose() bool {
	ts.off = append(ts.offBuf[:0], 0)
	for _, c := range ts.cands {
		ts.off = append(ts.off, ts.off[len(ts.off)-1]+len(c))
	}
	total := ts.off[len(ts.cands)]
	ts.res = ts.ar.Curves(total)[:total]
	clear(ts.res) // arena memory is not zeroed
	ts.dec = ts.ar.Gated(total)[:total]
	ts.hd = ts.ar.Floats(total)[:total]
	lazy := len(ts.cands) == 2
	if lazy {
		ts.floor = ts.ar.Floats(total)[:total]
	}
	closed := ts.aggRisesImmediately()
	for i, c := range ts.cands {
		for ci := range c {
			res := ts.residualAt(i, ci)
			if !closed {
				continue
			}
			dec, ok := ts.ar.DecomposeGatedConvex(res)
			if !ok {
				closed = false
				continue
			}
			s := ts.off[i] + ci
			ts.dec[s], ts.hd[s] = dec, math.NaN()
			if lazy {
				ts.floor[s] = minplus.DeviationFloor(ts.agg, dec)
			} else {
				ts.hdAt(s)
			}
		}
	}
	return closed
}

// hdAt returns the gate-stripped deviation of table slot s, computing it
// on the chain arena the first time; a k = 2 search's floor for the slot
// becomes the deviation itself.
func (ts *thetaSearch) hdAt(s int) float64 {
	if ts.exact(s) {
		return ts.hd[s]
	}
	chi := ts.ar.ShiftLeft(ts.res[s], ts.dec[s].Gate)
	hd := minplus.HorizontalDeviation(ts.agg, chi)
	ts.hd[s] = hd
	if ts.floor != nil {
		ts.floor[s] = hd
	}
	ts.deviations++
	return hd
}

// exact reports whether slot s's gate-stripped deviation is computed.
func (ts *thetaSearch) exact(s int) bool { return !math.IsNaN(ts.hd[s]) }

// enumeratePairs is the k = 2 enumeration.
func (ts *thetaSearch) enumeratePairs(fast bool) float64 {
	n0, n1 := len(ts.cands[0]), len(ts.cands[1])
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
	// lower it. Each candidate's floor (its hd once computed, hdAt) is at
	// most its hd, so the same test on the floors rules a pair out before
	// its hds are computed. The pair of smallest lb goes first, found on
	// the floors: the pair of smallest floor sum has its hds computed until
	// it is one whose floors are both exact, and so of smallest lb. The
	// rest follow in index order on this goroutine: what is evaluated
	// depends only on the inputs. The scans over all pairs spell lb out,
	// with a row's gate and floor hoisted: they run once per pair.
	dec0, dec1, fl0, fl1 := ts.dec[:n0], ts.dec[n0:], ts.floor[:n0], ts.floor[n0:]
	lb := func(i0, i1 int) float64 {
		return dec0[i0].Gate + dec1[i1].Gate + max(fl0[i0], fl1[i1])
	}
	var f0, f1 int
	for {
		least := math.Inf(1)
		for i0 := range dec0 {
			g0, h0 := dec0[i0].Gate, fl0[i0]
			for i1 := range dec1 {
				if l := g0 + dec1[i1].Gate + max(h0, fl1[i1]); l < least {
					f0, f1, least = i0, i1, l
				}
			}
		}
		if ts.exact(f0) && ts.exact(n0+f1) {
			break
		}
		ts.hdAt(f0)
		ts.hdAt(n0 + f1)
	}
	total, lat := ts.ceil, ts.lat
	// visit evaluates a pair that passed the test on its floors.
	visit := func(i0, i1 int) {
		if ts.stop() {
			return
		}
		ts.hdAt(i0)
		ts.hdAt(n0 + i1)
		if lb(i0, i1)+lat >= total {
			return
		}
		wa.Reset()
		w := wa.ConvolveConvexParts(dec0[i0], dec1[i1])
		v := dec0[i0].Gate + dec1[i1].Gate + max(fl0[i0], fl1[i1], minplus.HorizontalDeviation(ts.agg, w))
		evaluated++
		if v < best {
			best = v
		}
		if v+lat < total {
			total = v + lat
		}
	}
	if lb(f0, f1)+lat < total {
		visit(f0, f1)
	}
	for i0 := range dec0 {
		g0 := dec0[i0].Gate
		for i1 := range dec1 {
			if g0+dec1[i1].Gate+max(fl0[i0], fl1[i1])+lat < total && (i0 != f0 || i1 != f1) {
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
		ts.tm.thetaCandidates.Add(int64(len(ts.hd)))
		ts.tm.thetaDeviations.Add(int64(ts.deviations))
	}
}

// scanFunc prepares the scan of coordinate i with the other coordinates
// held at idx — sequentially, on the chain arena — and returns the
// evaluator of i's candidates, which the scan fans out: it only reads what
// the preparation built and allocates from the worker arena it is handed.
// best is the scan's incumbent: the evaluator may return any lower bound of
// a candidate's value that is >= best in place of the value.
type scanFunc func(idx []int, i int, best float64) func(wa *minplus.Arena, ci int) float64

// coordinateDescent is the k > 2 search, on the closed form when it
// applies to the search and on generic convolutions otherwise: it scans one
// coordinate at a time from the all-zero vector (candidate index 0 is
// always theta = 0), keeping the best strictly improving candidate of each
// scan, up to three passes — the same search the pre-overhaul engine ran —
// with evaluated vectors memoized.
func (ts *thetaSearch) coordinateDescent(scan scanFunc) float64 {
	k := len(ts.cands)
	idx := make([]int, k)
	seen := newVecMemo(ts.cands)
	// The starting vector, as the last coordinate's scan evaluates it: for
	// the generic scan that is the left fold of the convolution.
	wa := minplus.GetArena()
	best := scan(idx, k-1, math.Inf(1))(wa, idx[k-1])
	wa.Release()
	seen.put(idx, k-1, idx[k-1], best)
	for pass := 0; pass < 3; pass++ {
		improved := false
		for i := 0; i < k; i++ {
			if ts.stop() {
				return best
			}
			eval := scan(idx, i, best)
			// The fan-out only reads seen (no concurrent writes happen
			// during it), and a memo miss recomputes the pure evaluation —
			// the identical value the serial code would have cached.
			vals := make([]float64, len(ts.cands[i]))
			fanOut(ts.ctx, len(vals), func(wa *minplus.Arena, ci int) error {
				if d, ok := seen.get(idx, i, ci); ok {
					vals[ci] = d
				} else {
					vals[ci] = eval(wa, ci)
				}
				return nil
			})
			// Persist the scan's evaluations into the memo sequentially.
			for ci, d := range vals {
				seen.put(idx, i, ci, d)
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

// genericScan evaluates coordinate i's candidates by generic convolution,
// the fixed prefix and suffix convolved once; min-plus convolution is
// associative, so prefix ⊗ res_i ⊗ suffix is the same curve as the left
// fold.
func (ts *thetaSearch) genericScan(idx []int, i int, _ float64) func(*minplus.Arena, int) float64 {
	k := len(idx)
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
	return func(wa *minplus.Arena, ci int) float64 {
		beta := ts.residualAt(i, ci)
		if pre != nil {
			beta = wa.Convolve(*pre, beta)
		}
		if suf != nil {
			beta = wa.Convolve(beta, *suf)
		}
		return minplus.HorizontalDeviation(ts.agg, beta)
	}
}

// closedFormScan evaluates coordinate i's candidates on the k-ary closed
// form (file header). The branches of the fixed coordinates — every set T
// of them that contains all the zero-jump ones — are built here, each with
// its deviation; a candidate c is then worth
//
//	sum of gates + max( maxFixed if J_c > 0, max over T of h(agg, W_{T+c}) ),
//
// the branches without c being dominated when c has no jump. A single
// coordinate's branch takes the deviation decompose cached, as a pair does.
func (ts *thetaSearch) closedFormScan(idx []int, i int, best float64) func(*minplus.Arena, int) float64 {
	k := len(idx)
	gates, jumps, points := 0.0, 0, 0
	for j := 0; j < k; j++ {
		if j == i {
			continue
		}
		p := &ts.dec[ts.off[j]+idx[j]]
		gates += p.Gate
		points += ts.residualAt(j, idx[j]).NumPoints()
		if p.Jump != 0 {
			jumps++
		}
	}
	// The closed form faces 2^jumps branches per candidate where the two
	// generic convolutions build 2 * (the operands' breakpoints) branch
	// curves: past that it has lost its advantage, and its branch set
	// would grow without bound.
	if jumps >= 62 || 1<<jumps > 2*(points+ts.scanPoints(i)) {
		return ts.genericScan(idx, i, best)
	}
	// branches[m] is W_T for T = the zero-jump coordinates plus the subset m
	// of the others, hds[m] its deviation; alone says branches[0] is the
	// empty set, whose merge with a candidate is the candidate on its own.
	branches := append(ts.ar.Gated(1<<jumps), minplus.GatedConvex{})
	hds := append(ts.ar.Floats(1<<jumps), 0)
	deviation := func(w minplus.GatedConvex) float64 {
		return minplus.HorizontalDeviation(ts.agg, ts.ar.ConvexPartCurve(w))
	}
	members := 0 // of branches[0]
	for j := 0; j < k; j++ {
		s := ts.off[j] + idx[j]
		if j == i || ts.dec[s].Jump != 0 {
			continue
		}
		if members == 0 {
			branches[0], hds[0] = ts.dec[s], ts.hd[s]
		} else {
			branches[0] = ts.ar.MergeConvexParts(branches[0], ts.dec[s])
		}
		members++
	}
	if members > 1 {
		hds[0] = deviation(branches[0])
	}
	alone := members == 0
	for j := 0; j < k; j++ {
		s := ts.off[j] + idx[j]
		if j == i || ts.dec[s].Jump == 0 {
			continue
		}
		for m, n := 0, len(branches); m < n; m++ {
			if m == 0 && alone {
				branches, hds = append(branches, ts.dec[s]), append(hds, ts.hd[s])
				continue
			}
			w := ts.ar.MergeConvexParts(branches[m], ts.dec[s])
			branches, hds = append(branches, w), append(hds, deviation(w))
		}
	}
	maxFixed := 0.0
	for _, hd := range hds {
		maxFixed = math.Max(maxFixed, hd)
	}
	kept := int64(len(branches))
	if alone {
		kept-- // the empty set is no branch of the fixed coordinates
	}
	faced := int64(1)<<min(k, 40) - 1
	candDec, candHd := ts.dec[ts.off[i]:], ts.hd[ts.off[i]:]
	return func(wa *minplus.Arena, ci int) float64 {
		c := &candDec[ci]
		g, m, evaluated := gates+c.Gate, 0.0, int64(0)
		if c.Jump != 0 {
			m, evaluated = maxFixed, kept
		}
		for b := range branches {
			if g+m >= best {
				break
			}
			hd := candHd[ci]
			if b > 0 || !alone {
				wa.Reset()
				hd = minplus.HorizontalDeviation(ts.agg, wa.ConvolveConvexParts(branches[b], *c))
			}
			m = math.Max(m, hd)
			evaluated++
		}
		if ts.tm != nil {
			ts.tm.ThetaBranches.Add(faced)
			ts.tm.ThetaBranchesCut.Add(faced - evaluated)
		}
		return g + m
	}
}

// scanPoints returns the largest breakpoint count among the residuals of
// coordinate i's candidates.
func (ts *thetaSearch) scanPoints(i int) int {
	n := 0
	for ci := range ts.cands[i] {
		n = max(n, ts.residualAt(i, ci).NumPoints())
	}
	return n
}

// vecMemo memoizes evaluated candidate-index vectors. A vector is keyed by
// its value as a mixed-radix number over the candidate counts; a grid with
// more than 2^64 vectors falls back to the indices spelled out.
type vecMemo struct {
	weight  []uint64 // nil: the grid outgrows a uint64
	packed  map[uint64]float64
	spelled map[string]float64
}

func newVecMemo(cands [][]float64) *vecMemo {
	weight, w := make([]uint64, len(cands)), uint64(1)
	for j, c := range cands {
		weight[j] = w
		hi, lo := bits.Mul64(w, uint64(len(c)))
		if hi != 0 {
			return &vecMemo{spelled: map[string]float64{}}
		}
		w = lo
	}
	return &vecMemo{weight: weight, packed: map[uint64]float64{}}
}

// key returns the packed key of idx with coordinate i at ci.
func (m *vecMemo) key(idx []int, i, ci int) uint64 {
	key := uint64(0)
	for j, x := range idx {
		if j == i {
			x = ci
		}
		key += m.weight[j] * uint64(x)
	}
	return key
}

// spell is the fallback key: four bytes an index.
func spell(idx []int, i, ci int) string {
	b := make([]byte, 0, 4*len(idx))
	for j, x := range idx {
		if j == i {
			x = ci
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return string(b)
}

// get looks up idx with coordinate i at ci.
func (m *vecMemo) get(idx []int, i, ci int) (float64, bool) {
	if m.weight == nil {
		d, ok := m.spelled[spell(idx, i, ci)]
		return d, ok
	}
	d, ok := m.packed[m.key(idx, i, ci)]
	return d, ok
}

// put records idx with coordinate i at ci.
func (m *vecMemo) put(idx []int, i, ci int, d float64) {
	if m.weight == nil {
		m.spelled[spell(idx, i, ci)] = d
		return
	}
	m.packed[m.key(idx, i, ci)] = d
}
