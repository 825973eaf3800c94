package analysis

import (
	"context"
	"fmt"
	"math"
	"sort"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// IntegratedSP extends Algorithm Integrated to static-priority networks —
// the extension the paper's conclusion announces as ongoing work.
//
// The construction layers the two leftover results this library already
// validates separately:
//
//  1. At an SP server, priority class p receives the leftover service
//     curve L(t) = [C*t - G_higher(t)]^+ (exact for preemptive-priority
//     fluid; see staticprio.go), of which a rate-latency minorant
//     beta_{R,T} with R = C - rate_higher and T the last zero of L is a
//     valid (slightly weaker) service curve.
//
//  2. Within its class the server is FIFO, so the theta-parameterized
//     FIFO residual family applies against same-class cross traffic on
//     top of the rate-latency guarantee:
//
//     beta_theta(t) = [ beta_{R,T}(t) - F_cross(t - theta) ]^+ . 1{t > theta},
//
//     the form used throughout FIFO network calculus for rate-latency
//     nodes; every theta >= 0 yields a sound bound.
//
// Chains of consecutive servers then convolve these per-class residuals
// exactly like the FIFO Integrated analyzer, clamped by the per-server
// class bounds. Classes are processed from the most urgent down, so the
// higher-class envelopes each class sees are already propagated.
type IntegratedSP struct {
	// ChainLength bounds the subnetwork size, as in Integrated.
	ChainLength int
}

// Name implements Analyzer.
func (IntegratedSP) Name() string { return "IntegratedSP" }

// Analyze implements Analyzer.
func (a IntegratedSP) Analyze(net *topo.Network) (*Result, error) {
	return a.AnalyzeContext(context.Background(), net)
}

// AnalyzeContext implements ContextAnalyzer: the per-class chain analysis
// checks the context between chains and classes, and the theta searches it
// spawns stop between candidates once the context is done. An uncancelled
// run is bit-identical to Analyze.
func (a IntegratedSP) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	net, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	for i, s := range net.Servers {
		if s.Discipline != server.StaticPriority {
			return nil, fmt.Errorf("analysis: IntegratedSP applies to static-priority networks; server %d is %v", i, s.Discipline)
		}
	}
	if !net.Stable() {
		return allInf("IntegratedSP", net), nil
	}
	chainer := Integrated{ChainLength: a.ChainLength}
	ordered, err := orderSubnetworks(g, chainer.partition(g))
	if err != nil {
		return nil, err
	}
	p := newPropagation(net)
	for _, sn := range ordered {
		ok := analyzeSPChain(ctx, net, sn.servers, p)
		if err := ctx.Err(); err != nil {
			return nil, ctxErr(err)
		}
		if !ok {
			return allInf("IntegratedSP", net), nil
		}
	}
	return denormalizeBacklogs(p.result("IntegratedSP"), scale), nil
}

// analyzeSPChain handles one chain of static-priority servers: classes in
// priority order, each analyzed like a FIFO chain against the leftover
// rate-latency guarantees after all more-urgent classes.
func analyzeSPChain(ctx context.Context, net *topo.Network, chain []int, p *propagation) bool {
	pos := make(map[int]int, len(chain))
	for i, s := range chain {
		pos[s] = i
	}
	// Classes present in this chain, most urgent first.
	classSet := map[int]bool{}
	for _, s := range chain {
		for _, c := range net.ConnectionsAt(s) {
			classSet[net.Connections[c].Priority] = true
		}
	}
	classes := make([]int, 0, len(classSet))
	for q := range classSet {
		classes = append(classes, q)
	}
	sort.Ints(classes)

	// higherEnv[i] accumulates, per chain position, the envelopes of all
	// classes more urgent than the one currently analyzed (at their
	// position-local deformation).
	higherEnv := make([]minplus.Curve, len(chain))
	for i := range higherEnv {
		higherEnv[i] = minplus.Zero()
	}

	for _, class := range classes {
		if canceled(ctx) {
			return false
		}
		if !analyzeSPClass(ctx, net, chain, pos, class, higherEnv, p) {
			return false
		}
	}
	// Record whole-server backlog bounds: the total aggregate after all
	// classes have been propagated is exactly higherEnv.
	for i, s := range chain {
		p.recordBacklog(s, higherEnv[i], net.Servers[s].Capacity)
	}
	return true
}

// analyzeSPClass runs the FIFO-style run analysis for one priority class
// of a chain and folds the class's per-position envelopes into higherEnv.
func analyzeSPClass(ctx context.Context, net *topo.Network, chain []int, pos map[int]int, class int, higherEnv []minplus.Curve, p *propagation) bool {
	// Runs of this class within the chain.
	runIndex := map[[2]int]*run{}
	var runs []*run
	seen := map[int]bool{}
	for _, s := range chain {
		for _, c := range net.ConnectionsAt(s) {
			if net.Connections[c].Priority != class || seen[c] {
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
	if len(runs) == 0 {
		return true
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].lo != runs[j].lo {
			return runs[i].lo < runs[j].lo
		}
		return runs[i].hi < runs[j].hi
	})

	// Per-position rate-latency guarantee for this class and local class
	// delays, then decomposed-style envelope propagation within the class.
	k := len(chain)
	guar := make([]minplus.Curve, k)
	local := make([]float64, k)
	envAt := make([]map[int]minplus.Curve, k+1)
	for i := range envAt {
		envAt[i] = map[int]minplus.Curve{}
	}
	for _, r := range runs {
		for _, c := range r.conns {
			envAt[r.lo][c] = p.env[c]
		}
	}
	for i := range chain {
		srv := net.Servers[chain[i]]
		var err error
		guar[i], err = spRateLatencyGuarantee(srv.Capacity, higherEnv[i], srv.Latency)
		if err != nil {
			return false
		}
		agg := sumSorted(envAt[i])
		local[i] = minplus.HorizontalDeviation(agg, guar[i])
		if math.IsInf(local[i], 1) {
			return false
		}
		for _, r := range runs {
			if r.lo <= i && i < r.hi {
				for _, c := range r.conns {
					envAt[i+1][c] = minplus.ShiftLeft(envAt[i][c], local[i])
				}
			}
		}
	}

	// Interval DP identical in structure to the FIFO chain analysis.
	type key [2]int
	direct := map[key]float64{}
	var best func(lo, hi int) float64
	directBound := func(lo, hi int) float64 {
		if lo == hi {
			return local[lo]
		}
		if d, ok := direct[key{lo, hi}]; ok {
			return d
		}
		covering := map[int]bool{}
		for _, r := range runs {
			if r.lo <= lo && hi <= r.hi {
				for _, c := range r.conns {
					covering[c] = true
				}
			}
		}
		d := spRunBound(ctx, net, chain, lo, hi, covering, envAt, guar, local)
		direct[key{lo, hi}] = d
		return d
	}
	memo := map[key]float64{}
	best = func(lo, hi int) float64 {
		if d, ok := memo[key{lo, hi}]; ok {
			return d
		}
		d := directBound(lo, hi)
		for m := lo; m < hi; m++ {
			if split := best(lo, m) + best(m+1, hi); split < d {
				d = split
			}
		}
		memo[key{lo, hi}] = d
		return d
	}

	for _, r := range runs {
		servers := make([]int, 0, r.hi-r.lo+1)
		for i := r.lo; i <= r.hi; i++ {
			servers = append(servers, chain[i])
		}
		d := best(r.lo, r.hi)
		for _, c := range r.conns {
			if !p.advance(c, servers, d, len(servers)) {
				return false
			}
		}
	}
	// Fold this class's per-position envelopes into the interference seen
	// by less urgent classes.
	for i := range chain {
		higherEnv[i] = minplus.Add(higherEnv[i], sumSorted(envAt[i]))
	}
	return true
}

// spRateLatencyGuarantee returns a rate-latency minorant of the preemptive
// leftover [C*t - higher(t)]^+: rate R = C - rate(higher), latency T = the
// last time the leftover is zero (the higher classes' maximal busy
// period), shifted by the server's fixed latency. A minorant of a valid
// service curve is valid.
func spRateLatencyGuarantee(capacity float64, higher minplus.Curve, lat float64) (minplus.Curve, error) {
	rate := capacity - higher.FinalSlope()
	if rate <= 0 {
		return minplus.Curve{}, fmt.Errorf("analysis: higher-priority classes saturate the server")
	}
	t := minplus.MaxBusyPeriod(higher, capacity)
	if math.IsInf(t, 1) {
		return minplus.Curve{}, fmt.Errorf("analysis: higher-priority busy period unbounded")
	}
	return minplus.RateLatency(rate, t+lat), nil
}

// spRunBound is runIntervalBound with the constant-rate service replaced
// by the class's rate-latency guarantees: the residual family
// [beta(t) - cross(t-theta)]^+ . 1{t>theta} on a rate-latency beta is the
// standard FIFO-node form, sound for every theta. The theta minimization
// is the shared memoized search (thetaSearch) with the rate-latency
// residual family injected.
func spRunBound(ctx context.Context, net *topo.Network, chain []int, lo, hi int, inAgg map[int]bool, envAt []map[int]minplus.Curve, guar []minplus.Curve, local []float64) float64 {
	entry := make(map[int]minplus.Curve, len(inAgg))
	for c := range inAgg {
		entry[c] = envAt[lo][c]
	}
	agg := sumSorted(entry)

	k := hi - lo + 1
	cross := make([]minplus.Curve, k)
	cands := make([][]float64, k)
	decomposedSum := 0.0
	for i := 0; i < k; i++ {
		posIdx := lo + i
		decomposedSum += local[posIdx]
		crossCurves := make(map[int]minplus.Curve)
		for c, e := range envAt[posIdx] {
			if !inAgg[c] {
				crossCurves[c] = e
			}
		}
		cross[i] = sumSorted(crossCurves)
		cands[i] = thetaCandidates(net.Servers[chain[posIdx]].Capacity, cross[i], local[posIdx])
	}

	ts := &thetaSearch{
		ctx:   ctx,
		agg:   agg,
		cands: cands,
		residual: func(i int, theta float64) minplus.Curve {
			return spResidual(guar[lo+i], cross[i], theta)
		},
	}
	best := ts.minimize()
	if decomposedSum < best {
		best = decomposedSum
	}
	return best
}

// spResidual is the FIFO residual family over a general (rate-latency)
// service curve.
func spResidual(beta, cross minplus.Curve, theta float64) minplus.Curve {
	raw := minplus.PositivePart(minplus.Sub(beta, minplus.Delay(cross, theta)))
	if !raw.IsNonDecreasing() {
		raw = minplus.MonotoneClosure(raw)
	}
	return minplus.ZeroUntil(raw, theta)
}
