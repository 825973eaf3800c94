package analysis_test

// The oracle: one deliberately naive whole-network delay analysis, the
// referee of every differential test beside it. It lives in the external
// test package, so the compiler keeps every unexported helper of the shipped
// analyzers out of its reach, and it calls no function of package analysis
// at all — it only fills in an analysis.Result. What it shares with the
// engine is minplus (whose operations have their own brute-force tests) and
// the topo / server data types. Everything the engine optimises is spelled
// out here instead: hops and servers are ordered by hand, the chain
// partition is re-derived from the rule DESIGN.md section 4.4 states,
// aggregates are pairwise Add folds in ascending connection order, every
// theta vector rebuilds its residuals and convolves them generically, pairs
// are enumerated exhaustively — no memo, no arena, no topo.Graph, no
// goroutine. FIFO servers only: Decomposed, and Integrated at any chain
// length. Nothing is rescaled: the corpora keep capacities at 1, where the
// absolute tolerances of minplus belong.

import (
	"math"
	"sort"

	"delaycalc/internal/analysis"
	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// oracleDecomposed is Cruz's decomposition: the chain analysis below on
// chains of one server.
func oracleDecomposed(net *topo.Network) *analysis.Result {
	return oracleAnalyze("Decomposed", net, 1)
}

// oracleIntegrated is Algorithm Integrated on chains of at most chainLen
// servers (the paper: 2).
func oracleIntegrated(net *topo.Network, chainLen int) *analysis.Result {
	return oracleAnalyze("Integrated", net, chainLen)
}

// oracle is the state of one run.
type oracle struct {
	net  *topo.Network
	at   [][]int         // server -> the connections crossing it, ascending
	env  []minplus.Curve // connection -> its envelope entering its next hop
	next []int           // connection -> index into its Path of that hop
	res  *analysis.Result
}

func oracleAnalyze(algo string, net *topo.Network, chainLen int) *analysis.Result {
	nc, ns := len(net.Connections), len(net.Servers)
	unbounded := &analysis.Result{Algorithm: algo, Bounds: make([]float64, nc), Stages: make([][]analysis.Stage, nc)}
	for c := range unbounded.Bounds {
		unbounded.Bounds[c] = math.Inf(1)
	}
	o := &oracle{net: net, at: make([][]int, ns), env: make([]minplus.Curve, nc), next: make([]int, nc),
		res: &analysis.Result{Algorithm: algo, Bounds: make([]float64, nc), Stages: make([][]analysis.Stage, nc), Backlogs: make([]float64, ns)}}
	load := make([]float64, ns)
	for c, conn := range net.Connections {
		o.env[c] = conn.SourceEnvelope()
		for _, s := range conn.Path {
			if net.Servers[s].Discipline != server.FIFO {
				panic("oracle: FIFO servers only")
			}
			o.at[s] = append(o.at[s], c)
			load[s] += conn.Bucket.Rho
		}
	}
	for s, l := range load {
		if l/net.Servers[s].Capacity >= 1 {
			return unbounded
		}
	}
	for _, chain := range o.chains(chainLen) {
		if !o.analyzeChain(chain) {
			return unbounded
		}
	}
	return o.res
}

// minFirstOrder sorts the nodes of an acyclic graph topologically, always
// taking the smallest ready node next.
func minFirstOrder(succ []map[int]bool) []int {
	indeg := make([]int, len(succ))
	for _, out := range succ {
		for v := range out {
			indeg[v]++
		}
	}
	var order []int
	for len(order) < len(succ) {
		u := 0
		for indeg[u] != 0 { // runs off the end on a cycle
			u++
		}
		order = append(order, u)
		indeg[u] = -1
		for v := range succ[u] {
			indeg[v]--
		}
	}
	return order
}

// chains partitions the servers into chains of at most maxLen and returns
// them in a topological order of the chain graph. The rule (DESIGN.md
// section 4.4): walk the servers in topological order; a server no chain
// owns opens one, which grows from its tail toward the unowned successor
// carrying the largest through rate (summed in ascending connection order,
// ties to the smaller index) for as long as every route edge between two of
// its servers joins neighbours, first to second, and the chain graph stays
// acyclic.
func (o *oracle) chains(maxLen int) [][]int {
	succ := make([]map[int]bool, len(o.net.Servers))
	for s := range succ {
		succ[s] = map[int]bool{}
	}
	for _, conn := range o.net.Connections {
		for h := 0; h+1 < len(conn.Path); h++ {
			succ[conn.Path[h]][conn.Path[h+1]] = true
		}
	}
	owner := map[int]int{}
	var chains [][]int
	for _, head := range minFirstOrder(succ) {
		if _, owned := owner[head]; owned {
			continue
		}
		chain := []int{head}
		owner[head] = len(chains)
		for len(chain) < maxLen {
			tail := chain[len(chain)-1]
			through := map[int]float64{}
			for _, c := range o.at[tail] {
				path := o.net.Connections[c].Path
				for h := 0; h+1 < len(path); h++ {
					if _, owned := owner[path[h+1]]; path[h] == tail && !owned {
						through[path[h+1]] += o.net.Connections[c].Bucket.Rho
					}
				}
			}
			pick, rate := -1, 0.0
			for v, r := range through {
				if r > rate || r == rate && v < pick {
					pick, rate = v, r
				}
			}
			longer := append(chain[:len(chain):len(chain)], pick)
			if pick < 0 || !neighbourly(longer, succ) || reenters(longer, succ, owner, chains) {
				break
			}
			chain = longer
			owner[pick] = len(chains)
		}
		chains = append(chains, chain)
	}
	chainSucc := make([]map[int]bool, len(chains))
	for u, chain := range chains {
		chainSucc[u] = map[int]bool{}
		for _, s := range chain {
			for t := range succ[s] {
				if owner[t] != u {
					chainSucc[u][owner[t]] = true
				}
			}
		}
	}
	var ordered [][]int
	for _, u := range minFirstOrder(chainSucc) {
		ordered = append(ordered, chains[u])
	}
	return ordered
}

// neighbourly reports whether every route edge between two servers of the
// chain goes from one position to the next.
func neighbourly(chain []int, succ []map[int]bool) bool {
	for i, u := range chain {
		for j, v := range chain {
			if succ[u][v] && j != i+1 {
				return false
			}
		}
	}
	return true
}

// reenters reports whether a walk leaving the chain comes back to it — a
// cycle of the chain graph — by a plain depth-first search that visits every
// server together with the finished chain that owns it.
func reenters(chain []int, succ []map[int]bool, owner map[int]int, chains [][]int) bool {
	in, seen := map[int]bool{}, map[int]bool{}
	for _, s := range chain {
		in[s] = true
	}
	var visit func(s int) bool
	visit = func(s int) bool {
		if in[s] || seen[s] {
			return in[s]
		}
		group := []int{s}
		if u, owned := owner[s]; owned {
			group = chains[u]
		}
		for _, m := range group {
			seen[m] = true
		}
		for _, m := range group {
			for t := range succ[m] {
				if visit(t) {
					return true
				}
			}
		}
		return false
	}
	for _, s := range chain {
		for t := range succ[s] {
			if !in[t] && visit(t) {
				return true
			}
		}
	}
	return false
}

// interval is a range of chain positions, both ends included.
type interval struct{ lo, hi int }

// analyzeChain advances every connection crossing the chain across it and
// reports false when a local delay is unbounded.
//
// Connections crossing the same maximal interval of consecutive chain
// positions from their next hop on form one FIFO aggregate, a run. Each
// interval [lo, hi] some run covers has a direct bound — the local FIFO delay
// for one server, intervalBound for more — which holds for the aggregate of
// every connection covering it, and the best bound D[lo][hi] is the cheapest
// segmentation: min(direct, min over m of D[lo][m] + D[m+1][hi]). Envelopes
// inside the chain are the entry envelopes shifted by upstream bounds: local
// delays at first, then (chains of three or more) the D of the prefix, twice
// over.
func (o *oracle) analyzeChain(chain []int) bool {
	pos := map[int]int{}
	for i, s := range chain {
		pos[s] = i
	}
	run := map[int]interval{}
	for _, s := range chain {
		for _, c := range o.at[s] {
			if _, grouped := run[c]; grouped {
				continue
			}
			path := o.net.Connections[c].Path
			lo, in := pos[path[o.next[c]]]
			if !in {
				panic("oracle: a connection's next hop is not in the chain that crosses it")
			}
			hi := lo
			for h := o.next[c] + 1; h < len(path); h++ {
				if p, in := pos[path[h]]; !in || p != hi+1 {
					break
				}
				hi++
			}
			run[c] = interval{lo, hi}
		}
	}
	n := len(chain)
	rate := func(i int) minplus.Curve { return minplus.Rate(o.net.Servers[chain[i]].Capacity) }
	var envAt []map[int]minplus.Curve // position -> connection -> envelope there
	var local []float64
	var D [][]float64
	iters := 1
	if n > 2 {
		iters = 3
	}
	for iter := 0; iter < iters; iter++ {
		prev := D
		envAt, local, D = make([]map[int]minplus.Curve, n), make([]float64, n), make([][]float64, n)
		for i := range chain {
			envAt[i] = map[int]minplus.Curve{}
			for c, r := range run {
				switch {
				case i < r.lo || r.hi < i:
				case i == r.lo:
					envAt[i][c] = o.env[c]
				case iter == 0:
					envAt[i][c] = minplus.ShiftLeft(envAt[i-1][c], local[i-1])
				default:
					envAt[i][c] = minplus.ShiftLeft(o.env[c], prev[r.lo][i-1])
				}
			}
			agg := sumOf(envAt[i], func(int) bool { return true })
			local[i] = minplus.HorizontalDeviation(agg, rate(i)) + o.net.Servers[chain[i]].Latency
			if math.IsInf(local[i], 1) {
				return false
			}
			o.res.Backlogs[chain[i]] = math.Max(0, minplus.VerticalDeviation(agg, rate(i)))
			D[i] = make([]float64, n)
		}
		for length := 1; length <= n; length++ {
			for lo, hi := 0, length-1; hi < n; lo, hi = lo+1, hi+1 {
				covers := func(c int) bool { return run[c].lo <= lo && hi <= run[c].hi }
				covered := false
				for c := range run {
					covered = covered || covers(c)
				}
				if D[lo][hi] = math.NaN(); !covered {
					continue // nothing reads it
				}
				if D[lo][hi] = local[lo]; length > 1 {
					D[lo][hi] = o.intervalBound(chain, lo, hi, covers, envAt, local)
				}
				for m := lo; m < hi; m++ {
					D[lo][hi] = math.Min(D[lo][hi], D[lo][m]+D[m+1][hi])
				}
			}
		}
	}
	for c, r := range run {
		d := D[r.lo][r.hi]
		o.env[c] = minplus.ShiftLeft(o.env[c], d)
		o.res.Bounds[c] += d
		o.next[c] += r.hi - r.lo + 1
		o.res.Stages[c] = append(o.res.Stages[c], analysis.Stage{Servers: append([]int(nil), chain[r.lo:r.hi+1]...), Delay: d})
	}
	return true
}

// sumOf adds the envelopes of the connections keep admits, one pairwise Add
// at a time in ascending connection order.
func sumOf(envs map[int]minplus.Curve, keep func(c int) bool) minplus.Curve {
	var conns []int
	for c := range envs {
		if keep(c) {
			conns = append(conns, c)
		}
	}
	sort.Ints(conns)
	acc := minplus.Zero()
	for _, c := range conns {
		acc = minplus.Add(acc, envs[c])
	}
	return acc
}

// intervalBound bounds the delay across chain positions lo..hi of the
// aggregate of the connections covering them: the horizontal deviation
// between its envelope entering lo and the convolution of the servers' FIFO
// residuals against the rest of their traffic, minimized over the theta
// candidates — every pair of them for two servers; beyond, a coordinate
// descent from all-zero, one coordinate at a time in ascending candidate
// order, strict improvements only, three passes at most — plus the
// latencies, and never more than the sum of the local delays.
func (o *oracle) intervalBound(chain []int, lo, hi int, covers func(int) bool, envAt []map[int]minplus.Curve, local []float64) float64 {
	agg := sumOf(envAt[lo], covers)
	k := hi - lo + 1
	beta, cross, cands := make([]minplus.Curve, k), make([]minplus.Curve, k), make([][]float64, k)
	lat, decomposed := 0.0, 0.0
	for i := range cross {
		srv := o.net.Servers[chain[lo+i]]
		lat += srv.Latency
		decomposed += local[lo+i]
		beta[i] = minplus.Rate(srv.Capacity)
		cross[i] = sumOf(envAt[lo+i], func(c int) bool { return !covers(c) })
		cands[i] = oracleThetas(srv.Capacity, cross[i], local[lo+i])
	}
	eval := func(theta []float64) float64 {
		conv := oracleResidual(beta[0], cross[0], theta[0])
		for i := 1; i < k; i++ {
			conv = minplus.Convolve(conv, oracleResidual(beta[i], cross[i], theta[i]))
		}
		return minplus.HorizontalDeviation(agg, conv)
	}
	best := math.Inf(1)
	if k == 2 {
		for _, t0 := range cands[0] {
			for _, t1 := range cands[1] {
				best = math.Min(best, eval([]float64{t0, t1}))
			}
		}
	} else {
		theta := make([]float64, k)
		best = eval(theta)
		for pass, improved := 0, true; pass < 3 && improved; pass++ {
			improved = false
			for i := range theta {
				keep := theta[i]
				for _, cand := range cands[i] {
					theta[i] = cand
					if d := eval(theta); d < best {
						best, keep, improved = d, cand, true
					}
				}
				theta[i] = keep
			}
		}
	}
	return math.Min(best+lat, decomposed)
}

// oracleResidual is the service a FIFO server offering beta to all its
// traffic leaves a flow whose competitors are bounded by cross, for one
// theta >= 0 (Le Boudec & Thiran, Proposition 6.2.1):
//
//	[beta(t) - cross(t - theta)]^+ for t > theta, 0 up to theta,
//
// made non-decreasing from below.
func oracleResidual(beta, cross minplus.Curve, theta float64) minplus.Curve {
	left := minplus.PositivePart(minplus.Sub(beta, minplus.Delay(cross, theta)))
	return minplus.ZeroUntil(minplus.MonotoneClosure(left), theta)
}

// oracleThetas is the finite set of thetas the search ranges over at one
// server: 0, every breakpoint of the cross traffic as a time and as an
// amount served at full capacity, its burst likewise, and eighths of the
// server's local delay.
func oracleThetas(capacity float64, cross minplus.Curve, local float64) []float64 {
	set := map[float64]bool{0: true}
	add := func(v float64) {
		if v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v) {
			set[v] = true
		}
	}
	for _, p := range cross.Points() {
		add(p.X)
		add(p.Y / capacity)
	}
	add(cross.EvalRight(0) / capacity)
	for e := 1; e <= 8; e++ {
		add(local * float64(e) / 8)
	}
	var out []float64
	for v := range set {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
