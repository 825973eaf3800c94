package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

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
//
// The same analysis serves static-priority networks — the extension the
// paper's conclusion announces as ongoing work. FIFO and static priority
// are the Delta = 0 and Delta = +-inf rows of one residual
// (Ghiassi-Farrokhfal / Liebeherr / Burchard), so a chain of either is one
// per-class loop (integratedChainStep): FIFO has one class, every
// connection, and static priority one per priority, FIFO within itself.
// A network must be all FIFO or all static priority.
type Integrated struct {
	// ChainLength is the maximum number of consecutive servers grouped
	// into one subnetwork. 0 and 2 reproduce the paper (pairs); larger
	// values trade analysis time for tighter bounds; 1 degenerates to
	// plain decomposition.
	ChainLength int
}

// IntegratedSP is Integrated, which analyzes static-priority networks too.
// The name stays for the benchmark harness, which still spells it.
type IntegratedSP = Integrated

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

// AnalyzeContext implements Analyzer: the same analysis as Analyze
// with cooperative cancellation checkpoints between chains, between
// classes, between chain positions, and inside the theta-search candidate
// fan-out. An uncancelled run is bit-identical to Analyze; once the
// context is done the partial state is discarded and the context's error
// is returned.
func (a Integrated) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, a.core(), net)
}

// core is the chain analysis on the one driver: chains of at most
// ChainLength servers, all FIFO or all static priority.
func (a Integrated) core() core {
	return core{name: "Integrated", check: fifoOrSP, maxLen: a.chainLength(), step: integratedChainStep}
}

// fifoOrSP is Integrated's check: server s is FIFO or static priority, like
// server 0, so every chain is of one discipline.
func fifoOrSP(net *topo.Network, _ [][]int, s int) error {
	d := net.Servers[s].Discipline
	if d != server.FIFO && d != server.StaticPriority {
		return fmt.Errorf("analysis: Integrated applies to FIFO or static-priority networks; server %d is %v", s, d)
	}
	if first := net.Servers[0].Discipline; d != first {
		return fmt.Errorf("analysis: Integrated applies to networks of one discipline; server %d is %v, server 0 is %v", s, d, first)
	}
	return nil
}

// integratedChainStep is Integrated's step, one chain: one analyzeChain
// pass per class, shaped like decomposedServerStep's per-class loop.
//
//   - FIFO: one pass over every connection, each position offering
//     Rate(C) with the server's latency added outside the deviation.
//   - Static priority: one pass per priority present, most urgent first,
//     each position offering the class the rate-latency minorant of the
//     leftover [C*t - G_higher(t)]^+ after the classes already passed
//     (spRateLatencyGuarantee, latency inside the curve). Within its class
//     the server is FIFO, so the residual family (residual.go) applies
//     against same-class cross traffic on top of that guarantee.
//
// It reports false when a bound is unbounded or the context was cancelled;
// the driver consults ctx.Err() to tell.
func integratedChainStep(ctx context.Context, net *topo.Network, idx [][]int, chain []int, p *propagation, ar *minplus.Arena) (bool, error) {
	sc := getChainScratch(ar)
	defer sc.release()
	sp := net.Servers[chain[0]].Discipline == server.StaticPriority
	classes := sc.classes[:0]
	// higher[i] accumulates, per chain position, the envelopes of the
	// static-priority classes already passed (at their position-local
	// deformation); after the last class it is the total aggregate.
	var higher []minplus.Curve
	if sp {
		for _, s := range chain {
			for _, c := range idx[s] {
				classes = append(classes, net.Connections[c].Priority)
			}
		}
		slices.Sort(classes)
		classes = slices.Compact(classes)
		higher = ar.Curves(len(chain))[:len(chain)]
		for i := range higher {
			higher[i] = minplus.Zero()
		}
	} else {
		classes = append(classes, 0) // one class, every connection
	}
	sc.classes = classes
	svc := sc.service(len(chain))
	for _, class := range classes {
		if canceled(ctx) {
			return false, nil
		}
		for i, s := range chain {
			srv := net.Servers[s]
			if !sp {
				svc[i] = hopService{beta: minplus.Rate(srv.Capacity), lat: srv.Latency}
				continue
			}
			beta, ok := spRateLatencyGuarantee(srv.Capacity, higher[i], srv.Latency)
			if !ok {
				return false, nil
			}
			svc[i] = hopService{beta: beta}
		}
		if !analyzeChain(ctx, sc, net, idx, chain, p, chainPass{svc: svc, byClass: sp, class: class}) {
			return false, nil
		}
		for i := range higher {
			higher[i] = ar.SumN(higher[i], sc.agg[i])
		}
	}
	backlog := sc.agg
	if sp {
		backlog = higher
	}
	for i, s := range chain {
		p.recordBacklog(s, backlog[i], net.Servers[s].Capacity)
	}
	return true, nil
}

// spRateLatencyGuarantee returns a rate-latency minorant of the preemptive
// leftover [C*t - higher(t)]^+: rate R = C - rate(higher), latency T = the
// last time the leftover is zero (the higher classes' maximal busy
// period), shifted by the server's fixed latency. A minorant of a valid
// service curve is valid. ok is false when the higher classes saturate the
// server or their busy period is unbounded: the class has no finite bound.
func spRateLatencyGuarantee(capacity float64, higher minplus.Curve, lat float64) (beta minplus.Curve, ok bool) {
	rate := capacity - higher.FinalSlope()
	if rate <= 0 {
		return minplus.Curve{}, false
	}
	t := minplus.MaxBusyPeriod(higher, capacity)
	if math.IsInf(t, 1) {
		return minplus.Curve{}, false
	}
	return minplus.RateLatency(rate, t+lat), true
}

// unitSuccessors lays the cross-unit precedence edges of a partition,
// read straight off the route graph, out in one slab: unit u precedes each
// unit of succ[start[u]:start[u+1]], listed once however many route edges
// leave u's servers for that unit's.
func unitSuccessors(g *topo.Graph, subnets []unitSpec) (start, succ []int) {
	owner := make([]int, g.Servers())
	edges := 0 // route edges, at least as many as unit edges
	for u, sn := range subnets {
		for _, s := range sn.servers {
			owner[s] = u
			edges += len(g.Succ(s))
		}
	}
	listed := make([]int, len(subnets)) // v is listed for u iff listed[v] == u+1
	start = make([]int, len(subnets)+1)
	succ = make([]int, 0, edges)
	for u, sn := range subnets {
		for _, s := range sn.servers {
			for _, e := range g.Succ(s) {
				if v := owner[e.To]; v != u && listed[v] != u+1 {
					listed[v] = u + 1
					succ = append(succ, v)
				}
			}
		}
		start[u+1] = len(succ)
	}
	return start, succ
}

// partition greedily grows chains of consecutive servers (in topological
// order), extending each chain toward the successor carrying the largest
// through rate, subject to every route edge between two servers of the
// chain joining neighbours (no reversed traversal, no skipped position) and
// to the extension not creating a cycle among subnetworks. Servers that
// cannot be grouped become singletons, exactly as the paper's Step 1
// allows. Together the two rules make every route's crossing of a chain one
// interval of consecutive positions, each visited in order: a route that
// left the chain and came back would close a cycle, and one that jumped a
// position would leave the hop in between unanalysed.
//
// The validity check is incremental: the committed partition is known
// acyclic (inductively), so extending a chain by one server creates a
// cycle iff the chain reaches the newcomer through at least one outside
// unit — a two-sided probe over the contracted unit graph
// (partitioner.createsCycle) instead of a clone-and-toposort per candidate.
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
// ownership over the route graph's successor and predecessor relations —
// so that each extension's validity check is a local graph probe. The
// committed partition (completed chains, the currently growing chain, and
// implicit singletons for unassigned servers) is acyclic as an invariant:
// it starts as the server DAG itself, and every accepted extension is
// checked to preserve acyclicity.
type partitioner struct {
	g     *topo.Graph
	owner []int // server -> unit id, -1 while an implicit singleton
	// Chains are grown one at a time and every server joins exactly one,
	// so all of them sit back to back, in chain order, in one array: unit
	// id's members start at start[id] and run to the next unit's start.
	flat  []int
	start []int
	// pred[predStart[s]:predStart[s+1]] are the servers with a route edge
	// into s, in ascending order: the route graph transposed, once.
	pred      []int
	predStart []int

	// Stamped marks of the contracted nodes the probes reach (unit ids in
	// unitMark, singleton servers in serverMark) and the probes' two
	// stacks, reused across probes without clearing: probe k stamps what
	// its forward side reaches 2k and what its backward side 2k+1.
	unitMark   []int
	serverMark []int
	epoch      int
	stack      [2][]int // [forward], [backward]

	// The probe in progress: the unit and the server it would take in.
	unit, next int
}

// The two sides of a cycle probe.
const (
	forward  = 0
	backward = 1
)

func newPartitioner(g *topo.Graph) *partitioner {
	n := g.Servers()
	owner := make([]int, n)
	predStart := make([]int, n+1)
	for u := range owner {
		owner[u] = -1
		for _, e := range g.Succ(u) {
			predStart[e.To+1]++
		}
	}
	for s := 1; s <= n; s++ {
		predStart[s] += predStart[s-1]
	}
	// Filling rows in ascending u with a cursor per row keeps every row
	// sorted; the cursors end where the next row starts, so predStart is
	// shifted back by one slot afterwards.
	pred := make([]int, predStart[n])
	for u := range owner {
		for _, e := range g.Succ(u) {
			pred[predStart[e.To]] = u
			predStart[e.To]++
		}
	}
	copy(predStart[1:], predStart[:n])
	predStart[0] = 0
	return &partitioner{g: g, owner: owner, flat: make([]int, 0, n), start: make([]int, 0, n),
		pred: pred, predStart: predStart, unitMark: make([]int, 0, n), serverMark: make([]int, n)}
}

// preds returns the servers with a route edge into s.
func (pt *partitioner) preds(s int) []int { return pt.pred[pt.predStart[s]:pt.predStart[s+1]] }

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

// extensionValid checks that extending unit by next keeps every route edge
// inside the chain between neighbours and the partition acyclic. The chain
// passed this check at every earlier extension, so only an edge between
// next and the chain can break the first rule: one out of next back into
// the chain (a reversed traversal), or one into next from a member other
// than the tail (a route skipping the tail's position, whose hop in between
// no run would analyse).
func (pt *partitioner) extensionValid(unit, next int) bool {
	for _, e := range pt.g.Succ(next) {
		if pt.owner[e.To] == unit {
			return false
		}
	}
	chain := pt.members(unit)
	tail := chain[len(chain)-1]
	for _, s := range pt.preds(next) {
		if s != tail && pt.owner[s] == unit {
			return false
		}
	}
	return !pt.createsCycle(unit, next)
}

// createsCycle reports whether merging server next (an implicit singleton
// the tail has an edge to) into unit closes a cycle in the contracted unit
// graph. With the committed partition acyclic, the only cycle the merge can
// close runs from unit through at least one outside node to next: one from
// next back to unit, or from either to itself, would already be a cycle with
// the edge unit -> next. So the probe searches from both ends at once — a
// forward side from unit's outside successors, a backward side from next's
// outside predecessors — always expanding the side with less left to
// expand, and stops when the sides meet (a cycle) or either runs dry (none).
// A side that runs dry has reached everything it can, so the probe costs
// about twice the smaller of the two closures rather than the whole
// downstream of unit.
func (pt *partitioner) createsCycle(unit, next int) bool {
	pt.epoch++
	pt.unit, pt.next = unit, next
	pt.stack[forward], pt.stack[backward] = pt.stack[forward][:0], pt.stack[backward][:0]
	// Edges inside the merged set, tail -> next among them, are not cycles.
	for _, s := range pt.members(unit) {
		for _, e := range pt.g.Succ(s) {
			if !pt.inMerged(e.To) && pt.reach(forward, e.To) {
				return true
			}
		}
	}
	for _, s := range pt.preds(next) {
		if !pt.inMerged(s) && pt.reach(backward, s) {
			return true
		}
	}
	for len(pt.stack[forward]) > 0 && len(pt.stack[backward]) > 0 {
		side := forward
		if len(pt.stack[backward]) < len(pt.stack[forward]) {
			side = backward
		}
		if pt.expand(side) {
			return true
		}
	}
	return false
}

// inMerged reports whether server s belongs to the probe's merged set.
func (pt *partitioner) inMerged(s int) bool { return s == pt.next || pt.owner[s] == pt.unit }

// reach marks server t's contracted node as reached by side, queueing it
// the first time, and reports whether the other side reached it already:
// then a path from unit to next runs through it.
func (pt *partitioner) reach(side, t int) bool {
	mark, node := &pt.serverMark[t], ^t // stacks hold singletons bit-complemented
	if u := pt.owner[t]; u >= 0 {
		mark, node = &pt.unitMark[u], u
	}
	own := 2*pt.epoch + side
	switch *mark {
	case own:
		return false
	case own ^ 1:
		return true
	}
	*mark = own
	pt.stack[side] = append(pt.stack[side], node)
	return false
}

// expand pops one node of side and follows every route edge out of
// (forward) or into (backward) its servers; landing in the merged set or
// where the other side has been closes the cycle.
func (pt *partitioner) expand(side int) bool {
	st := pt.stack[side]
	n := st[len(st)-1]
	pt.stack[side] = st[:len(st)-1]
	single := [1]int{^n}
	servers := single[:]
	if n >= 0 {
		servers = pt.members(n)
	}
	for _, s := range servers {
		if side == forward {
			for _, e := range pt.g.Succ(s) {
				if pt.inMerged(e.To) || pt.reach(side, e.To) {
					return true
				}
			}
			continue
		}
		for _, t := range pt.preds(s) {
			if pt.inMerged(t) || pt.reach(side, t) {
				return true
			}
		}
	}
	return false
}

// orderLevels sorts a partition topologically by the precedence relation
// "some connection leaves unit A and enters unit B", smallest ready unit
// first, and cuts the sorted list into dependency levels: a unit's level is
// one past the deepest level among the units feeding it, so every unit of a
// level only depends on earlier levels, and order within a level follows
// the sorted list. One list of unit edges serves both. An error means the
// partition induces a cycle.
func orderLevels(g *topo.Graph, subnets []unitSpec) ([]unitSpec, [][]unitSpec, error) {
	start, succ := unitSuccessors(g, subnets)
	order := topo.MinFirstOrder(len(subnets), func(u int, visit func(v int)) {
		for _, v := range succ[start[u]:start[u+1]] {
			visit(v)
		}
	})
	if order == nil {
		return nil, nil, fmt.Errorf("analysis: subnetwork partition induces a cycle")
	}
	// Every edge points from an earlier unit of the order to a later one,
	// so relaxing the edges in order computes the exact longest-path level
	// in one pass.
	level := make([]int, len(subnets))
	width := []int{0} // units per level
	for _, u := range order {
		for _, v := range succ[start[u]:start[u+1]] {
			level[v] = max(level[v], level[u]+1)
		}
		if level[u] == len(width) {
			width = append(width, 0)
		}
		width[level[u]]++
	}
	// ordered and the levels are each one slab: the levels cut theirs at
	// the running sums of their widths.
	ordered := make([]unitSpec, len(order))
	levels := make([][]unitSpec, len(width))
	slab := make([]unitSpec, len(order))
	for l, w := range width {
		levels[l], slab = slab[:0:w], slab[w:]
	}
	for i, u := range order {
		ordered[i] = subnets[u]
		levels[level[u]] = append(levels[level[u]], subnets[u])
	}
	return ordered, levels, nil
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
	// ar backs every intra-chain curve: the driver's worker arena, which
	// stays the chain's until the step returns, so what a pass leaves here
	// (agg) stays readable by the caller between passes over the same chain.
	ar      *minplus.Arena
	svc     []hopService    // the caller's per-position service description
	agg     []minplus.Curve // out: the last pass's aggregate per position
	classes []int           // the chain's classes: priorities, or one for FIFO
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

// getChainScratch draws a chain's scratch from the pool, its curves to
// come from ar.
func getChainScratch(ar *minplus.Arena) *chainScratch {
	sc := chainScratchPool.Get().(*chainScratch)
	sc.ar = ar
	return sc
}

func (sc *chainScratch) release() {
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
// what outlives the chain (the propagation's envelopes) is kept elsewhere:
// in the shift pool of an untraced run, in the arena until the driver's
// recordUnit copies them out of a traced one. Chains of one level run
// concurrently, so scratch and arena are strictly chain-local, and the
// theta search's candidate fan-outs use their own per-worker pool arenas.
// On success sc.agg holds the pass's aggregate envelope at every position.
func analyzeChain(ctx context.Context, sc *chainScratch, net *topo.Network, idx [][]int, chain []int, p *propagation, pass chainPass) bool {
	ar, svc := sc.ar, pass.svc
	tm, bg := timingsFrom(ctx), budgetFrom(ctx)
	// Group connections into runs. The partition makes every route's
	// crossing of a chain one interval of consecutive positions (see
	// partition), and the chains before this one have advanced each
	// connection to its first server here, so a connection is grouped at
	// the chain server its next unprocessed hop points to and at no later
	// one — no seen-set is needed — and its run reaches exactly as far as
	// its route stays in the chain.
	sc.nHdrs = 0
	runs := sc.runs[:0]
	for i, s := range chain {
		for _, c := range idx[s] {
			if pass.byClass && net.Connections[c].Priority != pass.class {
				continue
			}
			path := net.Connections[c].Path
			h := p.next[c]
			if path[h] != s {
				continue // grouped at its entry server, not here
			}
			hi := i
			for k := h + 1; k < len(path) && hi+1 < len(chain) && path[k] == chain[hi+1]; k++ {
				hi++
			}
			var r *run
			for _, q := range runs {
				if q.lo == i && q.hi == hi {
					r = q
					break
				}
			}
			if r == nil {
				r = sc.newRun(i, hi)
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
		aggStart := tm.now()
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
		// Every member enters its run on its own envelope (the first
		// prefix shift is 0). The later prefix shifts are one vector per
		// run, so position by position members on one envelope take one
		// delay, and the shared shift hands them one curve.
		for ri, r := range runs {
			b := base[ri]
			for j, c := range r.conns {
				envAt[r.lo][b+j] = p.env[c]
			}
			if iter == 0 {
				continue // deformed by the local delays below
			}
			for i := r.lo + 1; i <= r.hi; i++ {
				for j, c := range r.conns {
					envAt[i][b+j] = ar.ShiftLeftShared(p.env[c], prefix[b+j][i-r.lo])
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
							envAt[i+1][b+j] = ar.ShiftLeftShared(envAt[i][b+j], local[i])
						}
					}
				}
			}
		}
		if tm != nil {
			tm.observe(&tm.Aggregate, aggStart)
		}
		thetaStart := tm.now()
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
		thetaStart := tm.now()
		d := bounds.best(r.lo, r.hi)
		if tm != nil {
			tm.observe(&tm.Theta, thetaStart)
		}
		propStart := tm.now()
		for _, c := range r.conns {
			if !p.advance(c, d, r.hi-r.lo+1, ar) {
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
	// ts is the theta search of the interval being bounded, set for every
	// interval and cleared after it: a value of the pooled scratch, so a
	// search allocates nothing of its own on the heap.
	ts thetaSearch
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
	d := ib.runIntervalBound(lo, hi)
	ib.direct[key] = d
	return d
}

// runIntervalBound computes the joint bound of the multi-server interval
// lo..hi for the aggregate covering it: the horizontal deviation between
// the aggregate's entry envelope and the min-plus convolution of the
// per-position FIFO residuals of svc's service curves against the local
// cross traffic (plus svc's latencies), minimized over the theta
// parameters by the shared memoized search (exact enumeration for two
// servers, coordinate descent for longer intervals — every evaluation is a
// valid bound, so any search strategy is sound), clamped by the decomposed
// sum of local delays (the search's pruning ceiling, and the whole answer
// for an interval reached after the soft budget ran out).
func (ib *intervalBounds) runIntervalBound(lo, hi int) float64 {
	ar, svc, local := ib.ar, ib.svc, ib.local
	lat, decomposedSum := 0.0, 0.0
	for i := lo; i <= hi; i++ {
		lat += svc[i].lat
		decomposedSum += local[i]
	}
	if ib.bg.spent() {
		return decomposedSum
	}
	agg := ib.ra.covering(lo, lo, hi)
	k := hi - lo + 1
	beta := ar.Curves(k)[:k]
	cross := ar.Curves(k)[:k]
	cands := ar.FloatSlices(k)[:k]
	for i := 0; i < k; i++ {
		posIdx := lo + i
		beta[i] = svc[posIdx].beta
		cross[i] = ib.ra.crossAt(posIdx, lo, hi)
		cands[i] = thetaCandidatesArena(ar, ib.net.Servers[ib.chain[posIdx]].Capacity, cross[i], local[posIdx])
	}

	ts := &ib.ts
	*ts = thetaSearch{
		ctx:   ib.ctx,
		bg:    ib.bg,
		agg:   agg,
		beta:  beta,
		cross: cross,
		cands: cands,
		ar:    ar,
		lat:   lat,
		ceil:  decomposedSum,
		tm:    ib.tm,
	}
	best := ts.minimize() + lat
	// The scratch goes back to its pool holding no request's context,
	// timings or arena-backed tables.
	*ts = thetaSearch{}
	if decomposedSum < best {
		best = decomposedSum
	}
	return best
}
