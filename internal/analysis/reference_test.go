package analysis

// This file freezes the pre-overhaul curve engine verbatim: the pairwise
// envelope folds, the per-candidate residual rebuilds, the generic
// convolution in the theta enumeration, and the strictly sequential chain
// loop, exactly as they stood before the k-way/memoized engine replaced
// them. TestCurveEngineAllocs and TestCurveEngineMatchesReference pin the
// new engine's bounds to this reference, so equivalence is enforced
// against the real old code rather than a strawman.
//
// Nothing here is reachable from non-test code. Shared, semantically
// unchanged helpers (FIFOResidual, thetaCandidates, fifoLocalDelay,
// propagation, partition/orderSubnetworks, normalizeNetwork) are used
// as-is; everything the overhaul rewrote is copied.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// refSum is the old minplus.Sum: a pairwise left fold of Add.
func refSum(curves ...minplus.Curve) minplus.Curve {
	acc := minplus.Zero()
	for _, c := range curves {
		acc = minplus.Add(acc, c)
	}
	return acc
}

// refSumSorted is the old analysis sumSorted: pairwise fold in key order.
func refSumSorted(m map[int]minplus.Curve) minplus.Curve {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	acc := minplus.Zero()
	for _, k := range keys {
		acc = minplus.Add(acc, m[k])
	}
	return acc
}

// refIntegratedAnalyze is the old Integrated.Analyze: strictly sequential
// subnetwork processing over the old chain analysis.
func refIntegratedAnalyze(a Integrated, net *topo.Network) (*Result, error) {
	net, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	for i, s := range net.Servers {
		if s.Discipline != server.FIFO {
			return nil, fmt.Errorf("analysis: Integrated applies to FIFO networks; server %d is %v", i, s.Discipline)
		}
	}
	if !net.Stable() {
		return allInf("Integrated", net), nil
	}
	ordered, err := orderSubnetworks(g, partition(g, a.chainLength()))
	if err != nil {
		return nil, err
	}
	p := newPropagation(net)
	for _, sn := range ordered {
		if ok := refAnalyzeChain(net, sn.servers, p, a.DeconvPropagation); !ok {
			return allInf("Integrated", net), nil
		}
	}
	return denormalizeBacklogs(p.result("Integrated"), scale), nil
}

// refDecomposedAnalyze is the old Decomposed.Analyze for FIFO networks,
// with the pairwise aggregate fold.
func refDecomposedAnalyze(net *topo.Network) (*Result, error) {
	net, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	if !net.Stable() {
		return allInf("Decomposed", net), nil
	}
	order := g.Order()
	p := newPropagation(net)
	for _, s := range order {
		srv := net.Servers[s]
		conns := net.ConnectionsAt(s)
		if len(conns) == 0 {
			continue
		}
		var envs []minplus.Curve
		for _, c := range conns {
			envs = append(envs, p.env[c])
		}
		p.recordBacklog(s, refSum(envs...), srv.Capacity)
		d := fifoLocalDelay(refSum(envs...), srv.Capacity, srv.Latency)
		for _, c := range conns {
			if !p.advance(c, []int{s}, d, 1) {
				return allInf("Decomposed", net), nil
			}
		}
	}
	return denormalizeBacklogs(p.result("Decomposed"), scale), nil
}

// refAnalyzeChain is the old analyzeChain, byte-for-byte except for calls
// into the other ref* copies.
func refAnalyzeChain(net *topo.Network, chain []int, p *propagation, deconv bool) bool {
	pos := make(map[int]int, len(chain))
	for i, s := range chain {
		pos[s] = i
	}
	runIndex := map[[2]int]*run{}
	var runs []*run
	seen := map[int]bool{}
	for _, s := range chain {
		for _, c := range net.ConnectionsAt(s) {
			if seen[c] {
				continue
			}
			seen[c] = true
			path := net.Connections[c].Path
			h := p.next[c]
			lo := pos[path[h]]
			hi := lo
			for k := h + 1; k < len(path); k++ {
				q, ok := pos[path[k]]
				if !ok || q != hi+1 {
					break
				}
				hi = q
			}
			key := [2]int{lo, hi}
			r, ok := runIndex[key]
			if !ok {
				r = &run{lo: lo, hi: hi}
				runIndex[key] = r
				runs = append(runs, r)
			}
			r.conns = append(r.conns, c)
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].lo != runs[j].lo {
			return runs[i].lo < runs[j].lo
		}
		return runs[i].hi < runs[j].hi
	})

	prefix := map[int][]float64{}
	var bounds *refIntervalBounds
	iters := 1
	if len(chain) > 2 {
		iters = 3
	}
	for iter := 0; iter < iters; iter++ {
		envAt := make([]map[int]minplus.Curve, len(chain)+1)
		local := make([]float64, len(chain))
		for i := range envAt {
			envAt[i] = map[int]minplus.Curve{}
		}
		for _, r := range runs {
			for _, c := range r.conns {
				for i := r.lo; i <= r.hi; i++ {
					if iter > 0 {
						envAt[i][c] = minplus.ShiftLeft(p.env[c], prefix[c][i-r.lo])
					} else if i == r.lo {
						envAt[i][c] = p.env[c]
					}
				}
			}
		}
		for i := range chain {
			srv := net.Servers[chain[i]]
			agg := refSumSorted(envAt[i])
			local[i] = fifoLocalDelay(agg, srv.Capacity, srv.Latency)
			if math.IsInf(local[i], 1) {
				return false
			}
			if iter == iters-1 {
				p.recordBacklog(chain[i], agg, srv.Capacity)
			}
			if iter == 0 {
				for _, r := range runs {
					if r.lo <= i && i < r.hi {
						for _, c := range r.conns {
							envAt[i+1][c] = minplus.ShiftLeft(envAt[i][c], local[i])
						}
					}
				}
			}
		}
		bounds = newRefIntervalBounds(net, chain, runs, envAt, local)
		for _, r := range runs {
			for _, c := range r.conns {
				shifts := make([]float64, r.hi-r.lo+1)
				for i := r.lo + 1; i <= r.hi; i++ {
					shifts[i-r.lo] = bounds.best(r.lo, i-1)
				}
				prefix[c] = shifts
			}
		}
	}
	for _, r := range runs {
		servers := make([]int, 0, r.hi-r.lo+1)
		for i := r.lo; i <= r.hi; i++ {
			servers = append(servers, chain[i])
		}
		d := bounds.best(r.lo, r.hi)
		for _, c := range r.conns {
			entry := p.env[c]
			if !p.advance(c, servers, d, len(servers)) {
				return false
			}
			if deconv && r.hi > r.lo {
				refined := refDeconvOutput(net, chain, r, c, entry, bounds)
				if refined != nil {
					p.env[c] = minplus.Min(p.env[c], *refined)
				}
			}
		}
	}
	return true
}

func refDeconvOutput(net *topo.Network, chain []int, r *run, c int, entry minplus.Curve, ib *refIntervalBounds) *minplus.Curve {
	beta := minplus.Curve{}
	for i := r.lo; i <= r.hi; i++ {
		crossCurves := make(map[int]minplus.Curve)
		for o, e := range ib.envAt[i] {
			if o != c {
				crossCurves[o] = e
			}
		}
		res := FIFOResidual(net.Servers[chain[i]].Capacity, refSumSorted(crossCurves), 0)
		if i == r.lo {
			beta = res
		} else {
			beta = minplus.Convolve(beta, res)
		}
	}
	if beta.FinalSlope() <= entry.FinalSlope() {
		return nil
	}
	out, err := minplus.Deconvolve(entry, beta)
	if err != nil {
		return nil
	}
	return &out
}

type refIntervalBounds struct {
	net    *topo.Network
	chain  []int
	runs   []*run
	envAt  []map[int]minplus.Curve
	local  []float64
	direct map[[2]int]float64
	opt    map[[2]int]float64
}

func newRefIntervalBounds(net *topo.Network, chain []int, runs []*run, envAt []map[int]minplus.Curve, local []float64) *refIntervalBounds {
	return &refIntervalBounds{
		net: net, chain: chain, runs: runs, envAt: envAt, local: local,
		direct: map[[2]int]float64{},
		opt:    map[[2]int]float64{},
	}
}

func (ib *refIntervalBounds) best(lo, hi int) float64 {
	key := [2]int{lo, hi}
	if d, ok := ib.opt[key]; ok {
		return d
	}
	d := ib.directBound(lo, hi)
	for m := lo; m < hi; m++ {
		if split := ib.best(lo, m) + ib.best(m+1, hi); split < d {
			d = split
		}
	}
	ib.opt[key] = d
	return d
}

func (ib *refIntervalBounds) directBound(lo, hi int) float64 {
	if lo == hi {
		return ib.local[lo]
	}
	key := [2]int{lo, hi}
	if d, ok := ib.direct[key]; ok {
		return d
	}
	covering := map[int]bool{}
	for _, r := range ib.runs {
		if r.lo <= lo && hi <= r.hi {
			for _, c := range r.conns {
				covering[c] = true
			}
		}
	}
	d := refRunIntervalBound(ib.net, ib.chain, lo, hi, covering, ib.envAt, ib.local)
	ib.direct[key] = d
	return d
}

// refRunIntervalBound is the old runIntervalBound: residuals rebuilt for
// every theta vector, generic convolution per evaluation, cross traffic
// re-summed per position.
func refRunIntervalBound(net *topo.Network, chain []int, lo, hi int, inAgg map[int]bool, envAt []map[int]minplus.Curve, local []float64) float64 {
	entry := make(map[int]minplus.Curve, len(inAgg))
	for c := range inAgg {
		entry[c] = envAt[lo][c]
	}
	agg := refSumSorted(entry)

	k := hi - lo + 1
	cross := make([]minplus.Curve, k)
	caps := make([]float64, k)
	cands := make([][]float64, k)
	lat := 0.0
	decomposedSum := 0.0
	for i := 0; i < k; i++ {
		posIdx := lo + i
		srv := net.Servers[chain[posIdx]]
		caps[i] = srv.Capacity
		lat += srv.Latency
		decomposedSum += local[posIdx]
		crossCurves := make(map[int]minplus.Curve)
		for c, e := range envAt[posIdx] {
			if !inAgg[c] {
				crossCurves[c] = e
			}
		}
		cross[i] = refSumSorted(crossCurves)
		cands[i] = thetaCandidates(caps[i], cross[i], local[posIdx])
	}

	evalAt := func(thetas []float64) float64 {
		beta := FIFOResidual(caps[0], cross[0], thetas[0])
		for i := 1; i < k; i++ {
			beta = minplus.Convolve(beta, FIFOResidual(caps[i], cross[i], thetas[i]))
		}
		return minplus.HorizontalDeviation(agg, beta)
	}

	best := math.Inf(1)
	if k == 2 {
		type pair struct{ t0, t1 float64 }
		var jobs []pair
		for _, t0 := range cands[0] {
			for _, t1 := range cands[1] {
				jobs = append(jobs, pair{t0, t1})
			}
		}
		best = seqMin(context.Background(), len(jobs), func(i int) float64 {
			return evalAt([]float64{jobs[i].t0, jobs[i].t1})
		})
	} else {
		thetas := make([]float64, k)
		best = evalAt(thetas)
		for pass := 0; pass < 3; pass++ {
			improved := false
			for i := 0; i < k; i++ {
				bestHere := thetas[i]
				for _, cand := range cands[i] {
					if cand == bestHere {
						continue
					}
					thetas[i] = cand
					if d := evalAt(thetas); d < best {
						best = d
						bestHere = cand
						improved = true
					}
				}
				thetas[i] = bestHere
			}
			if !improved {
				break
			}
		}
	}
	best += lat
	if decomposedSum < best {
		best = decomposedSum
	}
	return best
}

// seqMin is the minimum of f over 0..n-1, evaluated in order until ctx is
// done, for the frozen engines (here and in fabricref_test.go).
func seqMin(ctx context.Context, n int, f func(int) float64) float64 {
	best := math.Inf(1)
	for i := 0; i < n && !canceled(ctx); i++ {
		if v := f(i); v < best {
			best = v
		}
	}
	return best
}
