package analysis

// This file freezes the pre-arena Integrated engine verbatim — the chain
// analysis, partitioner and subnetwork ordering exactly as they stood
// before the allocation-free overhaul: per-server ConnectionsAt scans
// (O(connections x path length) per call), the connection-rescan
// successor/extension checks in the partitioner, the sort-per-pop
// subnetwork ready queue, heap-allocated aggregate caches, and the
// heap-allocating theta search. TestFabricAllocs measures the pooled
// engine's bounds and allocations against this reference on the
// Clos/fat-tree fabric workload, so the gate compares against the real pre-overhaul code rather than a
// strawman. The minplus layer is shared (the nil-arena paths allocate on
// the heap like the old operations did), which under-measures the true
// delta — the gate is conservative.
//
// Nothing here is reachable from non-test code. Shared, semantically
// unchanged helpers (FIFOResidual, thetaCandidates, fifoLocalDelay,
// propagation, partitioner.createsCycle, levelizeSubnetworks,
// analyzeLevel, normalizeNetwork) are used as-is; everything the overhaul
// rewrote is copied with a pre prefix.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// preIntegratedAnalyze is the old Integrated.AnalyzeContext body on a
// background context: old partition, old ordering, old chain analysis.
func preIntegratedAnalyze(a Integrated, net *topo.Network) (*Result, error) {
	ctx := context.Background()
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
	subnets, err := prePartition(a, net)
	if err != nil {
		return nil, err
	}
	ordered, err := preOrderSubnetworks(net, subnets)
	if err != nil {
		return nil, err
	}
	var levels [][]subnetwork
	if !a.Sequential {
		levels = levelizeSubnetworks(g, ordered)
	}
	p := newPropagation(net)
	if a.Sequential {
		for _, sn := range ordered {
			if !preAnalyzeChain(ctx, net, sn.servers, p, a.DeconvPropagation) {
				return allInf("Integrated", net), nil
			}
		}
	} else {
		for _, level := range levels {
			ok := analyzeLevel(level, func(sn subnetwork) bool {
				return preAnalyzeChain(ctx, net, sn.servers, p, a.DeconvPropagation)
			})
			if !ok {
				return allInf("Integrated", net), nil
			}
		}
	}
	return denormalizeBacklogs(p.result("Integrated"), scale), nil
}

// prePartition is the old Integrated.partition: successor choice and
// extension validity both rescan every connection.
func prePartition(a Integrated, net *topo.Network) ([]subnetwork, error) {
	order, err := net.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	maxLen := a.chainLength()
	pt := newPartitioner(topo.NewGraph(net))
	used := make(map[int]bool, len(net.Servers))
	var subnets []subnetwork
	for _, u := range order {
		if used[u] {
			continue
		}
		chain := []int{u}
		used[u] = true
		unit := pt.newUnit(u)
		for len(chain) < maxLen {
			tail := chain[len(chain)-1]
			next := preBestSuccessor(a, net, tail, used)
			if next < 0 {
				break
			}
			trial := append(append([]int(nil), chain...), next)
			if !preExtensionValid(pt, net, trial, unit, next) {
				break
			}
			chain = trial
			used[next] = true
			pt.assign(unit, next)
		}
		subnets = append(subnets, subnetwork{servers: chain})
	}
	return subnets, nil
}

// preBestSuccessor is the old bestSuccessor: a full connection scan per
// call.
func preBestSuccessor(a Integrated, net *topo.Network, tail int, used map[int]bool) int {
	through := make(map[int]float64)
	for _, c := range net.Connections {
		for i := 0; i+1 < len(c.Path); i++ {
			if c.Path[i] == tail && !used[c.Path[i+1]] {
				through[c.Path[i+1]] += c.Bucket.Rho
			}
		}
	}
	best, bestRate := -1, 0.0
	keys := make([]int, 0, len(through))
	for v := range through {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	for _, v := range keys {
		if through[v] > bestRate {
			best, bestRate = v, through[v]
		}
	}
	return best
}

// preExtensionValid is the old partitioner.extensionValid: the reversal
// check rescans every connection's full path.
func preExtensionValid(pt *partitioner, net *topo.Network, trial []int, unit, next int) bool {
	pos := make(map[int]int, len(trial))
	for i, s := range trial {
		pos[s] = i
	}
	for _, c := range net.Connections {
		for i := 0; i+1 < len(c.Path); i++ {
			pu, okU := pos[c.Path[i]]
			pv, okV := pos[c.Path[i+1]]
			if okU && okV && pv < pu {
				return false
			}
		}
	}
	return !pt.createsCycle(unit, next)
}

// preOrderSubnetworks is the old orderSubnetworks with the
// sort-after-every-pop ready queue.
func preOrderSubnetworks(net *topo.Network, subnets []subnetwork) ([]subnetwork, error) {
	owner := make(map[int]int, len(net.Servers))
	for i, sn := range subnets {
		for _, s := range sn.servers {
			owner[s] = i
		}
	}
	adj := make(map[int]map[int]bool)
	for _, c := range net.Connections {
		for i := 0; i+1 < len(c.Path); i++ {
			a, b := owner[c.Path[i]], owner[c.Path[i+1]]
			if a == b {
				continue
			}
			if adj[a] == nil {
				adj[a] = make(map[int]bool)
			}
			adj[a][b] = true
		}
	}
	indeg := make([]int, len(subnets))
	for _, outs := range adj {
		for v := range outs {
			indeg[v]++
		}
	}
	var ready []int
	for i := range subnets {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	var order []subnetwork
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, subnets[u])
		var next []int
		for v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				next = append(next, v)
			}
		}
		sort.Ints(next)
		ready = append(ready, next...)
		sort.Ints(ready)
	}
	if len(order) != len(subnets) {
		return nil, fmt.Errorf("analysis: subnetwork partition induces a cycle")
	}
	return order, nil
}

// preAnalyzeChain is the old analyzeChain: per-server ConnectionsAt
// scans, heap-allocated aggregate caches, heap theta search.
func preAnalyzeChain(ctx context.Context, net *topo.Network, chain []int, p *propagation, deconv bool) bool {
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
	var bounds *preIntervalBounds
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
		ra := newPreRunAggregates(len(chain), runs)
		for i := range chain {
			srv := net.Servers[chain[i]]
			ra.fill(i, envAt[i])
			agg := ra.total(i)
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
		bounds = newPreIntervalBounds(ctx, net, chain, runs, ra, envAt, local)
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
	for ri, r := range runs {
		servers := make([]int, 0, r.hi-r.lo+1)
		for i := r.lo; i <= r.hi; i++ {
			servers = append(servers, chain[i])
		}
		d := bounds.best(r.lo, r.hi)
		var excl *preRunExclSums
		if deconv && r.hi > r.lo {
			excl = newPreRunExclSums(bounds, ri)
		}
		for mi, c := range r.conns {
			entry := p.env[c]
			if !p.advance(c, servers, d, len(servers)) {
				return false
			}
			if excl != nil {
				refined := preDeconvOutput(net, chain, r, mi, entry, excl)
				if refined != nil {
					p.env[c] = minplus.Min(p.env[c], *refined)
				}
			}
		}
	}
	return true
}

// preSumConns is the old sumConns: a fresh operand slice per call.
func preSumConns(env map[int]minplus.Curve, conns []int) minplus.Curve {
	curves := make([]minplus.Curve, len(conns))
	for i, c := range conns {
		curves[i] = env[c]
	}
	return minplus.SumN(curves...)
}

// preRunAggregates is the old runAggregates: every partial, total and
// interval aggregate heap-allocates its operand list and result.
type preRunAggregates struct {
	runs    []*run
	partial [][]minplus.Curve
}

func newPreRunAggregates(nPos int, runs []*run) *preRunAggregates {
	ra := &preRunAggregates{runs: runs, partial: make([][]minplus.Curve, nPos)}
	for i := range ra.partial {
		ra.partial[i] = make([]minplus.Curve, len(runs))
	}
	return ra
}

func (ra *preRunAggregates) fill(i int, env map[int]minplus.Curve) {
	for ri, r := range ra.runs {
		if r.lo <= i && i <= r.hi {
			ra.partial[i][ri] = preSumConns(env, r.conns)
		}
	}
}

func (ra *preRunAggregates) total(i int) minplus.Curve {
	curves := make([]minplus.Curve, 0, len(ra.runs))
	for ri, r := range ra.runs {
		if r.lo <= i && i <= r.hi {
			curves = append(curves, ra.partial[i][ri])
		}
	}
	return minplus.SumN(curves...)
}

func (ra *preRunAggregates) covering(at, lo, hi int) minplus.Curve {
	curves := make([]minplus.Curve, 0, len(ra.runs))
	for ri, r := range ra.runs {
		if r.lo <= lo && hi <= r.hi {
			curves = append(curves, ra.partial[at][ri])
		}
	}
	return minplus.SumN(curves...)
}

func (ra *preRunAggregates) crossAt(at, lo, hi int) minplus.Curve {
	curves := make([]minplus.Curve, 0, len(ra.runs))
	for ri, r := range ra.runs {
		if r.lo <= at && at <= r.hi && !(r.lo <= lo && hi <= r.hi) {
			curves = append(curves, ra.partial[at][ri])
		}
	}
	return minplus.SumN(curves...)
}

// preRunExclSums is the old runExclSums: heap pairwise prefix/suffix sums.
type preRunExclSums struct {
	r        *run
	others   []minplus.Curve
	pre, suf [][]minplus.Curve
}

func newPreRunExclSums(ib *preIntervalBounds, ri int) *preRunExclSums {
	r := ib.runs[ri]
	n := r.hi - r.lo + 1
	m := len(r.conns)
	ex := &preRunExclSums{
		r:      r,
		others: make([]minplus.Curve, n),
		pre:    make([][]minplus.Curve, n),
		suf:    make([][]minplus.Curve, n),
	}
	for i := r.lo; i <= r.hi; i++ {
		rel := i - r.lo
		curves := make([]minplus.Curve, 0, len(ib.runs))
		for rj, o := range ib.runs {
			if rj != ri && o.lo <= i && i <= o.hi {
				curves = append(curves, ib.ra.partial[i][rj])
			}
		}
		ex.others[rel] = minplus.SumN(curves...)
		pre := make([]minplus.Curve, m+1)
		suf := make([]minplus.Curve, m+1)
		pre[0] = minplus.Zero()
		for j := 0; j < m; j++ {
			pre[j+1] = minplus.Add(pre[j], ib.envAt[i][r.conns[j]])
		}
		suf[m] = minplus.Zero()
		for j := m - 1; j >= 0; j-- {
			suf[j] = minplus.Add(suf[j+1], ib.envAt[i][r.conns[j]])
		}
		ex.pre[rel] = pre
		ex.suf[rel] = suf
	}
	return ex
}

func (ex *preRunExclSums) crossWithout(i, mi int) minplus.Curve {
	rel := i - ex.r.lo
	return minplus.SumN(ex.others[rel], ex.pre[rel][mi], ex.suf[rel][mi+1])
}

func preDeconvOutput(net *topo.Network, chain []int, r *run, mi int, entry minplus.Curve, ex *preRunExclSums) *minplus.Curve {
	beta := minplus.Curve{}
	for i := r.lo; i <= r.hi; i++ {
		res := FIFOResidual(net.Servers[chain[i]].Capacity, ex.crossWithout(i, mi), 0)
		if i == r.lo {
			beta = res
		} else {
			beta = minplus.ConvolveGated(beta, res)
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

// preIntervalBounds is the old intervalBounds over the old aggregates.
type preIntervalBounds struct {
	ctx    context.Context
	net    *topo.Network
	chain  []int
	runs   []*run
	ra     *preRunAggregates
	envAt  []map[int]minplus.Curve
	local  []float64
	direct map[[2]int]float64
	opt    map[[2]int]float64
}

func newPreIntervalBounds(ctx context.Context, net *topo.Network, chain []int, runs []*run, ra *preRunAggregates, envAt []map[int]minplus.Curve, local []float64) *preIntervalBounds {
	return &preIntervalBounds{
		ctx: ctx, net: net, chain: chain, runs: runs, ra: ra, envAt: envAt, local: local,
		direct: map[[2]int]float64{},
		opt:    map[[2]int]float64{},
	}
}

func (ib *preIntervalBounds) best(lo, hi int) float64 {
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

func (ib *preIntervalBounds) directBound(lo, hi int) float64 {
	if lo == hi {
		return ib.local[lo]
	}
	key := [2]int{lo, hi}
	if d, ok := ib.direct[key]; ok {
		return d
	}
	d := preRunIntervalBound(ib.ctx, ib.net, ib.chain, lo, hi, ib.ra, ib.local)
	ib.direct[key] = d
	return d
}

func preRunIntervalBound(ctx context.Context, net *topo.Network, chain []int, lo, hi int, ra *preRunAggregates, local []float64) float64 {
	agg := ra.covering(lo, lo, hi)

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
		cross[i] = ra.crossAt(posIdx, lo, hi)
		cands[i] = thetaCandidates(caps[i], cross[i], local[posIdx])
	}

	ts := &preThetaSearch{
		ctx:   ctx,
		agg:   agg,
		cands: cands,
		residual: func(i int, theta float64) minplus.Curve {
			return FIFOResidual(caps[i], cross[i], theta)
		},
	}
	best := ts.minimize() + lat
	if decomposedSum < best {
		best = decomposedSum
	}
	return best
}

// preThetaSearch is the old thetaSearch: every residual, decomposition,
// convolution and deviation allocates on the heap.
type preThetaSearch struct {
	ctx      context.Context
	agg      minplus.Curve
	cands    [][]float64
	residual func(pos int, theta float64) minplus.Curve

	res [][]*minplus.Curve
}

func (ts *preThetaSearch) residualAt(i, ci int) minplus.Curve {
	if ts.res[i][ci] == nil {
		c := ts.residual(i, ts.cands[i][ci])
		ts.res[i][ci] = &c
	}
	return *ts.res[i][ci]
}

func (ts *preThetaSearch) minimize() float64 {
	k := len(ts.cands)
	ts.res = make([][]*minplus.Curve, k)
	for i := range ts.res {
		ts.res[i] = make([]*minplus.Curve, len(ts.cands[i]))
	}
	if k == 2 {
		return ts.enumeratePairs()
	}
	return ts.coordinateDescent()
}

func (ts *preThetaSearch) aggRisesImmediately() bool {
	return ts.agg.EvalRight(0) > minplus.Eps || ts.agg.RightSlope(0) > minplus.Eps
}

func (ts *preThetaSearch) enumeratePairs() float64 {
	n0, n1 := len(ts.cands[0]), len(ts.cands[1])
	for i := 0; i < 2; i++ {
		for ci := range ts.cands[i] {
			ts.residualAt(i, ci)
		}
	}
	type part struct {
		dec minplus.GatedConvex
		hd  float64
	}
	fast := true
	parts := [2][]part{make([]part, n0), make([]part, n1)}
	for i := 0; i < 2 && fast; i++ {
		for ci := range ts.cands[i] {
			dec, ok := minplus.DecomposeGatedConvex(ts.residualAt(i, ci))
			if !ok {
				fast = false
				break
			}
			parts[i][ci] = part{dec: dec}
		}
	}
	if fast && ts.aggRisesImmediately() {
		for i := 0; i < 2; i++ {
			for ci := range ts.cands[i] {
				chi := minplus.ShiftLeft(ts.residualAt(i, ci), parts[i][ci].dec.Gate)
				parts[i][ci].hd = minplus.HorizontalDeviation(ts.agg, chi)
			}
		}
		return seqMin(ts.ctx, n0*n1, func(idx int) float64 {
			a, b := &parts[0][idx/n1], &parts[1][idx%n1]
			w := minplus.ConvolveConvexParts(a.dec, b.dec)
			hd := math.Max(math.Max(a.hd, b.hd), minplus.HorizontalDeviation(ts.agg, w))
			return a.dec.Gate + b.dec.Gate + hd
		})
	}
	return seqMin(ts.ctx, n0*n1, func(idx int) float64 {
		beta := minplus.Convolve(ts.residualAt(0, idx/n1), ts.residualAt(1, idx%n1))
		return minplus.HorizontalDeviation(ts.agg, beta)
	})
}

// coordinateDescent evaluates candidates sequentially where the old code
// fanned out with parallelValues: the old fan-out wrote the memo map from
// the workers (the latent race the overhaul fixed), which would trip the
// race detector here. Only reachable for ChainLength > 2, which the
// fabric gate does not use.
func (ts *preThetaSearch) coordinateDescent() float64 {
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
			beta = minplus.Convolve(beta, ts.residualAt(i, v[i]))
		}
		d := minplus.HorizontalDeviation(ts.agg, beta)
		seen[key] = d
		return d
	}
	best := evalVec(idx)
	for pass := 0; pass < 3; pass++ {
		improved := false
		for i := 0; i < k; i++ {
			var pre, suf *minplus.Curve
			if i > 0 {
				b := ts.residualAt(0, idx[0])
				for j := 1; j < i; j++ {
					b = minplus.Convolve(b, ts.residualAt(j, idx[j]))
				}
				pre = &b
			}
			if i+1 < k {
				b := ts.residualAt(i+1, idx[i+1])
				for j := i + 2; j < k; j++ {
					b = minplus.Convolve(b, ts.residualAt(j, idx[j]))
				}
				suf = &b
			}
			vals := make([]float64, len(ts.cands[i]))
			for ci := range ts.cands[i] {
				v := append([]int(nil), idx...)
				v[i] = ci
				key := vecKey(v)
				if d, ok := seen[key]; ok {
					vals[ci] = d
					continue
				}
				beta := ts.residualAt(i, ci)
				if pre != nil {
					beta = minplus.Convolve(*pre, beta)
				}
				if suf != nil {
					beta = minplus.Convolve(beta, *suf)
				}
				d := minplus.HorizontalDeviation(ts.agg, beta)
				seen[key] = d
				vals[ci] = d
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

// vecKey encodes a candidate-index vector as the frozen engine's memo key
// (two bytes an index: it collides past 65,535 candidates, which the
// engine's corpora never reach).
func vecKey(v []int) string {
	b := make([]byte, 0, 2*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8))
	}
	return string(b)
}
