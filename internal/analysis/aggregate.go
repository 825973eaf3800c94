package analysis

import "delaycalc/internal/minplus"

// runAggregates is the per-iteration aggregate cache of one chain: for
// every chain position, the partial sum of each run's member envelopes at
// that position. The total aggregate at a position and the entry/cross
// aggregates of every interval the DP explores are k-way sums of these
// partials, so no per-interval re-summation over individual connections is
// ever needed. All partial and derived curves are drawn from the owning
// chain's arena and die with it; the cache is used strictly sequentially.
type runAggregates struct {
	ar   *minplus.Arena
	runs []*run
	base []int // member-slot bases, shared with the owning chainScratch
	// partial[i][ri] is the sum of runs[ri].conns' envelopes at chain
	// position i; only positions inside the run's interval are populated
	// (entries outside it are never read). Rows slice the reusable flat
	// backing, so steady-state chains allocate nothing here.
	flat    []minplus.Curve
	partial [][]minplus.Curve
	scratch []minplus.Curve // reusable operand buffer for the k-way sums
}

// init points the cache at the current chain's runs and re-slices the
// partial table to nPos x len(runs); stale entries from a previous chain
// are never read (every read is guarded by the covering-run predicate
// whose entries fill rewrote this chain).
func (ra *runAggregates) init(ar *minplus.Arena, nPos int, runs []*run, base []int) {
	ra.ar, ra.runs, ra.base = ar, runs, base
	ra.flat = resize(ra.flat, nPos*len(runs))
	ra.partial = resize(ra.partial, nPos)
	for i := range ra.partial {
		ra.partial[i] = ra.flat[i*len(runs) : (i+1)*len(runs)]
	}
}

// fill computes the partial sums of every run present at position i from
// the position's slot-indexed envelope row.
func (ra *runAggregates) fill(i int, env []minplus.Curve) {
	for ri, r := range ra.runs {
		if r.lo <= i && i <= r.hi {
			curves := ra.scratch[:0]
			b := ra.base[ri]
			for j := range r.conns {
				curves = append(curves, env[b+j])
			}
			ra.partial[i][ri] = ra.ar.SumNSlice(curves)
			ra.scratch = curves[:0]
		}
	}
}

// total returns the full aggregate at position i (sum over every run
// present there, in run order).
func (ra *runAggregates) total(i int) minplus.Curve {
	curves := ra.scratch[:0]
	for ri, r := range ra.runs {
		if r.lo <= i && i <= r.hi {
			curves = append(curves, ra.partial[i][ri])
		}
	}
	ra.scratch = curves[:0]
	return ra.ar.SumNSlice(curves)
}

// covering returns the sum at position at of the partials of runs whose
// interval covers [lo, hi] — the through-aggregate of the interval.
func (ra *runAggregates) covering(at, lo, hi int) minplus.Curve {
	curves := ra.scratch[:0]
	for ri, r := range ra.runs {
		if r.lo <= lo && hi <= r.hi {
			curves = append(curves, ra.partial[at][ri])
		}
	}
	ra.scratch = curves[:0]
	return ra.ar.SumNSlice(curves)
}

// crossAt returns the cross traffic of interval [lo, hi] at position at:
// the partials of runs present at the position whose interval does not
// cover [lo, hi].
func (ra *runAggregates) crossAt(at, lo, hi int) minplus.Curve {
	curves := ra.scratch[:0]
	for ri, r := range ra.runs {
		if r.lo <= at && at <= r.hi && !(r.lo <= lo && hi <= r.hi) {
			curves = append(curves, ra.partial[at][ri])
		}
	}
	ra.scratch = curves[:0]
	return ra.ar.SumNSlice(curves)
}
