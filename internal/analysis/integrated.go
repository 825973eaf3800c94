package analysis

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// Integrated implements the paper's Algorithm Integrated (Figure 2):
//
//  1. Partition the network into subnetworks — the paper uses at most two
//     servers per subnetwork; this implementation generalizes to chains of
//     up to ChainLength consecutive servers, realizing the extension the
//     paper's conclusion announces.
//  2. Order the subnetworks topologically, so every subnetwork's input
//     traffic is characterized before the subnetwork is analyzed.
//  3. For each subnetwork, compute the delay bounds of the connections
//     inside it — jointly for every sub-aggregate that traverses several
//     consecutive servers — and the envelopes of its output traffic.
//  4. Sum the per-subnetwork delays along each connection's route.
//
// The multi-server bound realizes the paper's Theorem 1 idea — the delay
// dependency between consecutive FIFO servers means through traffic cannot
// pay every local worst case in full — with the provably sound FIFO
// residual service-curve family (see residual.go): each server s of a run
// offers the run's through-aggregate the curve beta_theta_s against the
// local cross traffic, the run offers their min-plus convolution, and
//
//	d_run = min_{theta vector} h( A, beta_theta_1 (x) ... (x) beta_theta_k )
//
// bounds the delay of every through bit ("pay bursts only once" across the
// run). The published closed form of Theorem 1 lives in an unavailable
// technical report; the naive reading of Lemmas 1-4 on the all-greedy
// scenario (kept as GreedyPairEstimate for comparison) is not a sound
// bound — packet-level simulation exhibits arrival alignments that exceed
// it — so this implementation uses the residual-curve formulation, every
// member of which is a proven service curve. Every run bound is clamped by
// the decomposed sum of its local FIFO delays, which is always valid.
//
// Steps 2-4 are the one driver every analysis runs on (Baseline.run): the
// ordered chains are cut into dependency levels and the chains of a level
// are analyzed concurrently, the same for a whole-network pass, a baseline
// build and an incremental trial.
type Integrated struct {
	// ChainLength is the maximum number of consecutive servers grouped
	// into one subnetwork. 0 and 2 reproduce the paper (pairs); larger
	// values trade analysis time for tighter bounds; 1 degenerates to
	// plain decomposition.
	ChainLength int
}

// Name implements Analyzer.
func (a Integrated) Name() string { return "Integrated" }

// chainLength resolves the effective maximum subnetwork size.
func (a Integrated) chainLength() int {
	if a.ChainLength <= 0 {
		return 2
	}
	return a.ChainLength
}

// Analyze implements Analyzer.
func (a Integrated) Analyze(net *topo.Network) (*Result, error) {
	return a.AnalyzeContext(context.Background(), net)
}

// AnalyzeContext implements ContextAnalyzer: the same analysis as Analyze
// with cooperative cancellation checkpoints between chains, between chain
// positions, and inside the theta-search candidate fan-out. An uncancelled
// run is bit-identical to Analyze; once the context is done the partial
// state is discarded and the context's error is returned.
func (a Integrated) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, a.core(), net)
}

// core is the FIFO chain analysis: every position serves at its line rate
// with the server's latency added outside the deviation, and every
// connection of the chain takes part in the one pass.
func (a Integrated) core() chainCore {
	return chainCore{algo: "Integrated", serves: "FIFO", discipline: server.FIFO,
		maxLen: a.chainLength(),
		chain: func(ctx context.Context, net *topo.Network, idx [][]int, chain []int, p *propagation) bool {
			sc := getChainScratch()
			defer sc.release()
			svc := sc.service(len(chain))
			for i, s := range chain {
				srv := net.Servers[s]
				svc[i] = hopService{beta: minplus.Rate(srv.Capacity), lat: srv.Latency}
			}
			if !analyzeChain(ctx, sc, net, idx, chain, p, chainPass{svc: svc}) {
				return false
			}
			for i, s := range chain {
				p.recordBacklog(s, sc.agg[i], net.Servers[s].Capacity)
			}
			return true
		}}
}

// chainCore is a chain analysis — Integrated on FIFO servers, IntegratedSP
// on static-priority ones — as a stepCore of the one driver: partition into
// chains of at most maxLen servers, order them, and run chain on each.
type chainCore struct {
	algo       string
	serves     string // discipline, as the check's error words it
	discipline server.Discipline
	maxLen     int
	// chain advances the propagation across one chain. It reports false
	// when a bound is unbounded (the whole analysis degrades to +Inf) or
	// the context was cancelled; callers consult ctx.Err() to tell.
	chain func(ctx context.Context, net *topo.Network, idx [][]int, chain []int, p *propagation) bool
}

// subnetOwner maps every server to the index of its subnetwork. The
// partition covers all servers, so the result is total.
func subnetOwner(nServers int, subnets []unitSpec) []int {
	owner := make([]int, nServers)
	for i, sn := range subnets {
		for _, s := range sn.servers {
			owner[s] = i
		}
	}
	return owner
}

// unitEdges enumerates the cross-unit precedence edges of a partition for
// topo.MinFirstOrder, read straight off the route graph: unit u precedes
// owner[e.To] for every edge e leaving one of u's servers for another
// unit. An edge may be reported once per server pair realising it.
func unitEdges(g *topo.Graph, subnets []unitSpec, owner []int) func(u int, visit func(v int)) {
	return func(u int, visit func(v int)) {
		for _, s := range subnets[u].servers {
			for _, e := range g.Succ(s) {
				if v := owner[e.To]; v != u {
					visit(v)
				}
			}
		}
	}
}

// partition greedily grows chains of consecutive servers (in topological
// order), extending each chain toward the successor carrying the largest
// through rate, subject to the extension not creating a cycle among
// subnetworks and not containing a reversed traversal. Servers that cannot
// be grouped become singletons, exactly as the paper's Step 1 allows.
//
// The validity check is incremental: the committed partition is known
// acyclic (inductively), so extending a chain by one server creates a
// cycle iff the merged unit can reach itself through at least one outside
// unit — a local reachability probe over the contracted unit graph
// (partitioner.createsCycle) instead of the full clone-and-toposort the
// previous implementation ran per candidate.
func partition(g *topo.Graph, maxLen int) []unitSpec {
	pt := newPartitioner(g)
	for _, u := range g.Order() {
		if pt.owner[u] >= 0 {
			continue
		}
		unit := pt.newUnit(u)
		for chain := pt.members(unit); len(chain) < maxLen; chain = pt.members(unit) {
			next := bestSuccessor(g.Succ(chain[len(chain)-1]), pt.owner)
			if next < 0 || !pt.extensionValid(unit, next) {
				break
			}
			pt.assign(unit, next)
		}
	}
	subnets := make([]unitSpec, len(pt.start))
	for unit := range subnets {
		chain := pt.members(unit)
		subnets[unit] = unitSpec{servers: chain[:len(chain):len(chain)]}
	}
	return subnets
}

// bestSuccessor picks, among a chain tail's successor edges, the successor
// no unit owns yet with the largest (positive) through-traffic rate, or -1.
// Ascending-index iteration with a strict comparison breaks rate ties
// toward the smaller server index.
func bestSuccessor(succ []topo.Edge, owner []int) int {
	best, bestRate := -1, 0.0
	for _, e := range succ {
		if owner[e.To] < 0 && e.Rate > bestRate {
			best, bestRate = e.To, e.Rate
		}
	}
	return best
}

// partitioner maintains the state of a growing partition — server
// ownership over the route graph's successor relation — so that each
// extension's validity check is a local graph probe. The committed
// partition (completed chains, the currently growing chain, and implicit
// singletons for unassigned servers) is acyclic as an invariant: it
// starts as the server DAG itself, and every accepted extension is
// checked to preserve acyclicity.
type partitioner struct {
	g     *topo.Graph
	owner []int // server -> unit id, -1 while an implicit singleton
	// Chains are grown one at a time and every server joins exactly one,
	// so all of them sit back to back, in chain order, in one array: unit
	// id's members start at start[id] and run to the next unit's start.
	flat  []int
	start []int

	// Epoch-stamped DFS marks and stack, reused across probes without
	// clearing (the stack grows to its high-water mark once).
	unitMark   []int
	serverMark []int
	epoch      int
	stack      []int
}

func newPartitioner(g *topo.Graph) *partitioner {
	n := g.Servers()
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	return &partitioner{g: g, owner: owner, flat: make([]int, 0, n), start: make([]int, 0, n),
		unitMark: make([]int, 0, n), serverMark: make([]int, n)}
}

// members returns unit id's servers in chain order.
func (pt *partitioner) members(id int) []int {
	if id+1 < len(pt.start) {
		return pt.flat[pt.start[id]:pt.start[id+1]]
	}
	return pt.flat[pt.start[id]:]
}

// newUnit opens a unit for a fresh chain rooted at server s.
func (pt *partitioner) newUnit(s int) int {
	id := len(pt.start)
	pt.start = append(pt.start, len(pt.flat))
	pt.unitMark = append(pt.unitMark, 0)
	pt.assign(id, s)
	return id
}

// assign commits server s to unit id, the newest unit, after a successful
// extension.
func (pt *partitioner) assign(id, s int) {
	pt.owner[s] = id
	pt.flat = append(pt.flat, s)
}

// extensionValid checks that extending unit by next keeps the partition
// free of reversed intra-chain traversals and acyclic. A reversed
// traversal is a route edge with both endpoints in the chain and its head
// earlier than its tail; the chain passed this check at every earlier
// extension, so only an edge out of next back into the chain can add one.
// With the pre-extension partition acyclic, the extended one has a cycle
// iff the merged unit lies on one, iff the merged unit reaches itself.
func (pt *partitioner) extensionValid(unit, next int) bool {
	for _, e := range pt.g.Succ(next) {
		if pt.owner[e.To] == unit {
			return false
		}
	}
	return !pt.createsCycle(unit, next)
}

// createsCycle reports whether merging server `next` (currently an
// implicit singleton) into `unit` closes a cycle in the contracted unit
// graph: it walks the units reachable from the merged set's external
// successors and checks whether any walk re-enters the merged set.
func (pt *partitioner) createsCycle(unit, next int) bool {
	pt.epoch++
	inMerged := func(s int) bool { return pt.owner[s] == unit || s == next }
	// Stack of contracted nodes: unit ids as-is, singleton servers
	// bit-complemented.
	stack := pt.stack[:0]
	defer func() { pt.stack = stack[:0] }()
	push := func(t int) {
		if u := pt.owner[t]; u >= 0 {
			if pt.unitMark[u] != pt.epoch {
				pt.unitMark[u] = pt.epoch
				stack = append(stack, u)
			}
		} else if pt.serverMark[t] != pt.epoch {
			pt.serverMark[t] = pt.epoch
			stack = append(stack, ^t)
		}
	}
	// Seed with the merged set's external successors; edges inside the
	// merged set (including tail -> next, the edge being contracted) are
	// not cycles.
	seed := func(s int) {
		for _, e := range pt.g.Succ(s) {
			if !inMerged(e.To) {
				push(e.To)
			}
		}
	}
	for _, s := range pt.members(unit) {
		seed(s)
	}
	seed(next)
	probe := func(s int) bool {
		for _, e := range pt.g.Succ(s) {
			if inMerged(e.To) {
				return true
			}
			push(e.To)
		}
		return false
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n >= 0 {
			for _, s := range pt.members(n) {
				if probe(s) {
					return true
				}
			}
		} else if probe(^n) {
			return true
		}
	}
	return false
}

// orderSubnetworks topologically sorts the partition by the precedence
// relation "some connection leaves subnetwork A and enters subnetwork B",
// smallest ready index first. An error means the partition induces a
// cycle.
func orderSubnetworks(g *topo.Graph, subnets []unitSpec) ([]unitSpec, error) {
	owner := subnetOwner(g.Servers(), subnets)
	order := topo.MinFirstOrder(len(subnets), unitEdges(g, subnets, owner))
	if order == nil {
		return nil, fmt.Errorf("analysis: subnetwork partition induces a cycle")
	}
	ordered := make([]unitSpec, len(order))
	for i, u := range order {
		ordered[i] = subnets[u]
	}
	return ordered, nil
}

// run is a maximal consecutive interval of chain positions traversed by a
// group of connections: the unit of joint analysis inside a chain.
type run struct {
	lo, hi int // inclusive chain positions
	conns  []int
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Contents are unspecified; callers must fully assign every
// element they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// chainScratch pools analyzeChain's per-chain bookkeeping — run headers,
// the dense slot-indexed envelope tables, DP shift vectors and interval
// memos — so a steady-state analysis reuses the same buffers for every
// chain instead of rebuilding maps and slices per chain. Chains of one
// level run concurrently; each invocation draws its own scratch from the
// pool. Reused tables are either fully reassigned before use or only read
// at indices the current chain provably wrote, so stale contents never
// leak between chains.
type chainScratch struct {
	// ar backs every intra-chain curve; it is drawn with the scratch and
	// released with it, so what a pass leaves here (agg) stays readable by
	// the caller between passes over the same chain.
	ar      *minplus.Arena
	svc     []hopService    // the caller's per-position service description
	agg     []minplus.Curve // out: the last pass's aggregate per position
	classes []int           // IntegratedSP's priority classes of the chain
	hdrs    []*run          // grow-only header pool; member slices keep capacity
	nHdrs   int
	runs    []*run
	base    []int // runs[ri]'s members own slots base[ri]..base[ri]+len-1
	// envBuf backs the per-position envelope rows: envAt[i] =
	// envBuf[i*total : (i+1)*total], indexed by member slot.
	envBuf []minplus.Curve
	envAt  [][]minplus.Curve
	prefix [][]float64 // per-slot DP shift vectors (values in chain arena)
	local  []float64
	ra     runAggregates
	ib     intervalBounds
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

func getChainScratch() *chainScratch {
	sc := chainScratchPool.Get().(*chainScratch)
	sc.ar = minplus.GetArena()
	return sc
}

func (sc *chainScratch) release() {
	sc.ar.Release()
	sc.ar = nil
	chainScratchPool.Put(sc)
}

// service returns the n-position service description for the caller to
// fill in.
func (sc *chainScratch) service(n int) []hopService {
	sc.svc = resize(sc.svc, n)
	return sc.svc
}

// hopService is what one chain position offers the traffic of a pass: the
// service curve its delays deviate from, and a fixed latency added outside
// the deviation. Theta candidates scale by the server's capacity either way.
type hopService struct {
	beta minplus.Curve
	lat  float64
}

// chainPass is what one pass of analyzeChain serves. The FIFO analysis makes
// one pass per chain: Rate(C_i) with the server's latency, every connection.
// Static priority makes one per class, most urgent first, with the
// rate-latency leftover of the more urgent classes and only the class's
// connections (FIFO among themselves) taking part.
type chainPass struct {
	svc []hopService // per chain position
	// byClass restricts the pass to the connections of priority class.
	byClass bool
	class   int
}

// newRun hands out a reset run header from the grow-only pool. Headers are
// allocated once and keep their member slice's capacity across chains.
func (sc *chainScratch) newRun(lo, hi int) *run {
	if sc.nHdrs == len(sc.hdrs) {
		sc.hdrs = append(sc.hdrs, new(run))
	}
	r := sc.hdrs[sc.nHdrs]
	sc.nHdrs++
	r.lo, r.hi, r.conns = lo, hi, r.conns[:0]
	return r
}

// analyzeChain performs one pass of the integrated analysis on one chain of
// servers: the connections the pass admits, against the service it
// describes.
//
// Within the chain, connections sharing the same maximal interval of
// consecutive chain servers form one FIFO sub-aggregate (a "run"): the
// paper's S12 with S1/S2 generalizes to one run per distinct interval.
// Every run of length one gets the exact local FIFO bound against the
// pass's full aggregate at its server; every longer run gets the
// residual-convolution bound against its cross traffic, clamped by the
// decomposed sum. Cross
// envelopes at interior servers are the run-entry envelopes deformed by
// the local FIFO delays accumulated so far — a valid (decomposed-style)
// intra-chain characterization.
//
// Aggregation is cached per iteration: every run's partial envelope sum is
// computed once per position (runAggregates), and the total, entry and
// cross aggregates every DP interval needs are k-way sums of those
// partials rather than per-interval folds over individual connections.
//
// The context is checked between chain positions and between runs, and
// flows into the theta search; after cancellation the function may return
// early with arbitrary partial state in p, so callers must consult
// ctx.Err() before interpreting the result. A Timings collector attached
// to the context receives the chain's aggregate / theta / propagate time.
//
// idx is the network's ConnectionIndex. Every intra-chain curve —
// envelope shifts, run partial sums, residuals, theta-search scratch —
// is drawn from the arena of the caller's scratch and dies with it; only
// what outlives the chain (the propagation's envelopes and stages) is
// heap-allocated. Chains of one level run concurrently, so scratch and
// arena are strictly chain-local, and the theta search's candidate
// fan-outs use their own per-worker pool arenas. On success sc.agg holds
// the pass's aggregate envelope at every position.
func analyzeChain(ctx context.Context, sc *chainScratch, net *topo.Network, idx [][]int, chain []int, p *propagation, pass chainPass) bool {
	ar, svc := sc.ar, pass.svc
	tm, bg := timingsFrom(ctx), budgetFrom(ctx)
	// Chains hold at most ChainLength servers, so position lookup is a
	// linear scan instead of a per-chain map.
	posOf := func(s int) int {
		for i, cs := range chain {
			if cs == s {
				return i
			}
		}
		return -1
	}
	// Group connections into runs. A connection is normally grouped
	// exactly at the chain server its next unprocessed hop points to: the
	// partition's acyclicity makes its chain crossing one contiguous path
	// segment with strictly increasing chain positions, so the entry
	// server is the first chain server it appears at and later servers of
	// the crossing never match — no seen-set is needed. The exception is
	// a connection whose next hop lies outside this chain (its previous
	// run was cut short by a chain-position gap, leaving p.next pointing
	// into an already-analyzed chain): the historical map-based grouping
	// defaulted those to position 0 at the connection's first chain
	// server, and that behavior is replicated verbatim — the test oracle
	// groups the same way, and TestLongChainLedger keeps the books of what
	// it costs (ROADMAP item 5).
	sc.nHdrs = 0
	runs := sc.runs[:0]
	for i, s := range chain {
		for _, c := range idx[s] {
			if pass.byClass && net.Connections[c].Priority != pass.class {
				continue
			}
			path := net.Connections[c].Path
			h := p.next[c]
			lo := posOf(path[h])
			if lo != i {
				if lo >= 0 {
					continue // grouped at its entry server, not here
				}
				// Next hop outside the chain: group at the first chain
				// server on the path, at default position 0.
				first := true
				for j := 0; j < i && first; j++ {
					for _, q := range path {
						if q == chain[j] {
							first = false
							break
						}
					}
				}
				if !first {
					continue
				}
				lo = 0
			}
			hi := lo
			for k := h + 1; k < len(path); k++ {
				if q := posOf(path[k]); q != hi+1 {
					break
				}
				hi++
			}
			var r *run
			for _, q := range runs {
				if q.lo == lo && q.hi == hi {
					r = q
					break
				}
			}
			if r == nil {
				r = sc.newRun(lo, hi)
				runs = append(runs, r)
			}
			r.conns = append(r.conns, c)
		}
	}
	// Insertion sort by (lo, hi). Intervals are distinct, so this is the
	// exact order the previous sort.Slice produced, without its closure.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && (runs[j].lo < runs[j-1].lo ||
			(runs[j].lo == runs[j-1].lo && runs[j].hi < runs[j-1].hi)); j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	sc.runs = runs
	// Dense member slots replace the per-connection envelope and shift
	// maps: run ri's members own slots base[ri]..base[ri]+len(conns)-1,
	// and every consumer walks run memberships, so (ri, j) always
	// identifies a slot without any lookup structure.
	base := resize(sc.base, len(runs))
	sc.base = base
	total := 0
	for ri, r := range runs {
		base[ri] = total
		total += len(r.conns)
	}

	// Delay per run: dynamic program over segmentations of the run's
	// interval. For every subinterval [i, j] the bound B[i][j] applies to
	// the aggregate of ALL connections whose chain interval covers
	// [i, j] — FIFO serves the aggregate as one flow, so its bound holds
	// for every member — and a run may split its interval wherever that
	// is cheaper:
	//
	//	D[i][j] = min( B[i][j], min_m D[i][m] + D[m+1][j] ).
	//
	// Single positions use the exact local FIFO bound (B[i][i] =
	// local[i], since every connection at a server is part of the full
	// aggregate there). This subsumes the paper's pair analysis (the
	// segmentation into pairs is one of the candidates) and extends it to
	// longer chains.
	//
	// Intra-chain envelopes are a fixpoint problem: cross envelopes at
	// interior positions depend on upstream delay bounds, which depend on
	// cross envelopes. Iterate from the decomposed (local-shift)
	// propagation and re-propagate with the DP prefix bounds: every
	// iterate deforms envelopes by proven delay bounds, so every
	// iteration is sound, and later iterations only tighten.
	prefix := resize(sc.prefix, total) // slot -> shift per run position
	sc.prefix = prefix
	var bounds *intervalBounds
	// For chains of length <= 2 the DP prefix equals the local delay, so
	// one pass suffices; longer chains benefit from re-propagation.
	iters := 1
	if len(chain) > 2 {
		iters = 3
	}
	for iter := 0; iter < iters; iter++ {
		aggStart := time.Now()
		envAt := resize(sc.envAt, len(chain)+1)
		sc.envAt = envAt
		envBuf := resize(sc.envBuf, (len(chain)+1)*total)
		sc.envBuf = envBuf
		for i := range envAt {
			envAt[i] = envBuf[i*total : (i+1)*total]
		}
		local := resize(sc.local, len(chain))
		sc.local = local
		sc.agg = resize(sc.agg, len(chain))
		for ri, r := range runs {
			b := base[ri]
			for j, c := range r.conns {
				for i := r.lo; i <= r.hi; i++ {
					if iter > 0 {
						envAt[i][b+j] = ar.ShiftLeft(p.env[c], prefix[b+j][i-r.lo])
					} else if i == r.lo {
						envAt[i][b+j] = p.env[c]
					}
				}
			}
		}
		ra := &sc.ra
		ra.init(ar, len(chain), runs, base)
		for i := range chain {
			if canceled(ctx) {
				return false
			}
			ra.fill(i, envAt[i])
			agg := ra.total(i)
			sc.agg[i] = agg
			local[i] = minplus.HorizontalDeviation(agg, svc[i].beta) + svc[i].lat
			if math.IsInf(local[i], 1) {
				return false
			}
			if iter == 0 {
				// Initial decomposed-style propagation.
				for ri, r := range runs {
					if r.lo <= i && i < r.hi {
						b := base[ri]
						for j := range r.conns {
							envAt[i+1][b+j] = ar.ShiftLeft(envAt[i][b+j], local[i])
						}
					}
				}
			}
		}
		if tm != nil {
			tm.observe(&tm.Aggregate, aggStart)
		}
		thetaStart := time.Now()
		bounds = &sc.ib
		bounds.init(ctx, tm, bg, ar, net, chain, svc, ra, local)
		// Record the DP prefix bounds as the next iteration's shifts. The
		// shift vector is identical for every member of a run, so one
		// arena-backed vector per run is shared by all its slots.
		for ri, r := range runs {
			if canceled(ctx) {
				return false
			}
			n := r.hi - r.lo + 1
			shifts := ar.Floats(n)[:n]
			shifts[0] = 0 // arena memory is not zeroed
			for i := r.lo + 1; i <= r.hi; i++ {
				shifts[i-r.lo] = bounds.best(r.lo, i-1)
			}
			b := base[ri]
			for j := range r.conns {
				prefix[b+j] = shifts
			}
		}
		if tm != nil {
			tm.observe(&tm.Theta, thetaStart)
		}
	}
	for _, r := range runs {
		if canceled(ctx) {
			return false
		}
		servers := make([]int, 0, r.hi-r.lo+1)
		for i := r.lo; i <= r.hi; i++ {
			servers = append(servers, chain[i])
		}
		thetaStart := time.Now()
		d := bounds.best(r.lo, r.hi)
		if tm != nil {
			tm.observe(&tm.Theta, thetaStart)
		}
		propStart := time.Now()
		for _, c := range r.conns {
			if !p.advance(c, servers, d, len(servers)) {
				return false
			}
		}
		if tm != nil {
			tm.observe(&tm.Propagate, propStart)
		}
	}
	return true
}

// intervalBounds lazily computes and memoizes the direct bound B[i][j] and
// the segmented optimum D[i][j] for chain intervals. The memos are dense
// L*L tables (L = chain length, key lo*L+hi) with NaN marking unset
// entries — every stored bound is finite: local delays were checked
// against +Inf before the DP runs, and every interval bound is clamped by
// its decomposed sum of local delays.
type intervalBounds struct {
	ctx    context.Context // cancellation for the theta searches it spawns
	tm     *Timings        // pair counts of those searches (nil: none)
	bg     *budget         // soft budget of those searches (nil: none)
	ar     *minplus.Arena  // owning chain's arena for interval scratch
	net    *topo.Network
	chain  []int
	svc    []hopService
	ra     *runAggregates
	local  []float64
	direct []float64
	opt    []float64
}

func (ib *intervalBounds) init(ctx context.Context, tm *Timings, bg *budget, ar *minplus.Arena, net *topo.Network, chain []int, svc []hopService, ra *runAggregates, local []float64) {
	ib.ctx, ib.tm, ib.bg, ib.ar, ib.net, ib.chain, ib.svc = ctx, tm, bg, ar, net, chain, svc
	ib.ra, ib.local = ra, local
	n := len(chain) * len(chain)
	ib.direct = resize(ib.direct, n)
	ib.opt = resize(ib.opt, n)
	for i := range ib.direct {
		ib.direct[i] = math.NaN()
		ib.opt[i] = math.NaN()
	}
}

// best returns D[lo][hi], the cheapest bound for traversing chain
// positions lo..hi as part of a covering aggregate.
func (ib *intervalBounds) best(lo, hi int) float64 {
	key := lo*len(ib.chain) + hi
	if d := ib.opt[key]; !math.IsNaN(d) {
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

// directBound returns B[lo][hi]: the residual-convolution bound for the
// aggregate of all connections whose interval covers [lo, hi] (the local
// FIFO bound when lo == hi).
func (ib *intervalBounds) directBound(lo, hi int) float64 {
	if lo == hi {
		return ib.local[lo]
	}
	key := lo*len(ib.chain) + hi
	if d := ib.direct[key]; !math.IsNaN(d) {
		return d
	}
	d := runIntervalBound(ib.ctx, ib.tm, ib.bg, ib.ar, ib.net, ib.chain, ib.svc, lo, hi, ib.ra, ib.local)
	ib.direct[key] = d
	return d
}

// runIntervalBound computes the joint bound of a multi-server interval for
// a given aggregate: the horizontal deviation between the aggregate's
// entry envelope and the min-plus convolution of the per-position FIFO
// residuals of svc's service curves against the local cross traffic (plus
// svc's latencies), minimized over the
// theta parameters by the shared memoized search (exact enumeration for
// two servers, coordinate descent for longer intervals — every
// evaluation is a valid bound, so any search strategy is sound), clamped
// by the decomposed sum of local delays (the search's pruning ceiling, and
// the whole answer for an interval reached after the soft budget ran out).
func runIntervalBound(ctx context.Context, tm *Timings, bg *budget, ar *minplus.Arena, net *topo.Network, chain []int, svc []hopService, lo, hi int, ra *runAggregates, local []float64) float64 {
	lat, decomposedSum := 0.0, 0.0
	for i := lo; i <= hi; i++ {
		lat += svc[i].lat
		decomposedSum += local[i]
	}
	if bg.spent() {
		return decomposedSum
	}
	agg := ra.covering(lo, lo, hi)
	k := hi - lo + 1
	cross := ar.Curves(k)[:k]
	cands := make([][]float64, k)
	for i := 0; i < k; i++ {
		posIdx := lo + i
		cross[i] = ra.crossAt(posIdx, lo, hi)
		cands[i] = thetaCandidatesArena(ar, net.Servers[chain[posIdx]].Capacity, cross[i], local[posIdx])
	}

	ts := &thetaSearch{
		ctx:   ctx,
		bg:    bg,
		agg:   agg,
		cands: cands,
		ar:    ar,
		residual: func(i int, theta float64) minplus.Curve {
			return residual(ar, svc[lo+i].beta, cross[i], theta)
		},
		lat:  lat,
		ceil: decomposedSum,
		tm:   tm,
	}
	best := ts.minimize() + lat
	if decomposedSum < best {
		best = decomposedSum
	}
	return best
}
