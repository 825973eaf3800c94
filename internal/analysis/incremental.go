package analysis

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// This file holds the one driver, Baseline.run, and the incremental
// re-analysis it serves: a Baseline records, for a fully analyzed network,
// the propagation state after every analysis unit (one server for
// Decomposed, one chain for Integrated and IntegratedSP), and Extend
// re-analyzes the network with one extra connection by recomputing only
// the units the candidate can influence and replaying the recorded state
// for every other unit. A plain Analyze is the same run, recording nothing.
//
// Why replay is exact: every core processes units in a topological order
// consistent with every connection's route, so when a unit is processed,
// each crossing connection is entering it with its state fully determined
// by the units it crossed before. A unit's computation is a deterministic
// pure function of its servers and the entry states of its crossing
// connections. Process the trial partition in order; a unit is dirty iff
// its server tuple did not exist in the baseline partition, the candidate
// crosses it, or some crossing connection is dirty, and every connection
// crossing a dirty unit becomes dirty. By induction, a clean unit sees
// exactly the entry states of the baseline run, so its recorded outputs are
// bit-identical to what recomputation would produce. The dirty relation is
// precisely the downstream interference closure of the candidate's route:
// propagated output burstiness makes interference transitive, and the
// closure over the server-sharing graph (lifted to partition units) is how
// it spreads. See docs/INCREMENTAL.md for the full argument.

// Incremental is implemented by analyzers that support baseline+extend
// re-analysis. Extend results are bit-identical to a full Analyze of the
// extended network.
type Incremental interface {
	Analyzer
	// NewBaseline fully analyzes the network and retains the per-unit
	// propagation trace needed by Extend.
	NewBaseline(net *topo.Network) (*Baseline, error)
}

// Compile-time checks: the analyzers the admission engine accelerates.
var (
	_ Incremental = Decomposed{}
	_ Incremental = Integrated{}
	_ Incremental = IntegratedSP{}
)

// stepCore is the analyzer-specific machinery behind the one driver
// (Baseline.run): an ordered partition of the network into units, and the
// computation that advances the propagation state across one unit.
type stepCore interface {
	name() string
	// check validates analyzer-specific preconditions (e.g. FIFO-only) on
	// the normalized network.
	check(net *topo.Network) error
	// units returns the ordered partition of the normalized network whose
	// route graph is g.
	units(g *topo.Graph) ([]unitSpec, error)
	// reusableUnits reports whether the partition depends only on the
	// servers and a topological order — in which case a trial whose graph
	// still shares the baseline's order reuses the baseline's unit list
	// instead of re-deriving it. Decomposed (one unit per server in that
	// order) qualifies; the chain partition (which follows the edge rates
	// and which a bridging candidate can merge) does not.
	reusableUnits() bool
	// apply runs the unit's computation. ok=false degrades the whole
	// analysis to +Inf. Units of one dependency level are applied
	// concurrently; they share no connection. idx is the network's
	// ConnectionIndex, computed once per (trial) network by the driver so
	// unit computations avoid per-server route scans. The context feeds the
	// unit's internal cancellation checkpoints; after cancellation the
	// outputs are meaningless and the caller must consult ctx.Err() before
	// interpreting them.
	apply(ctx context.Context, net *topo.Network, idx [][]int, u unitSpec, p *propagation) (ok bool, err error)
}

// unitSpec identifies one analysis unit by the servers it covers: the
// exact server tuple is the unit's identity across partitions.
type unitSpec struct {
	servers []int
}

// crossing appends to buf the indices of the connections with a hop in the
// unit, in increasing order: the merge of its servers' ConnectionIndex
// rows, each of which is sorted.
func (u unitSpec) crossing(idx [][]int, buf []int) []int {
	if len(u.servers) == 1 {
		return append(buf, idx[u.servers[0]]...)
	}
	var posBuf [8]int
	pos := posBuf[:0]
	for range u.servers {
		pos = append(pos, 0)
	}
	for {
		next := -1
		for k, s := range u.servers {
			if pos[k] < len(idx[s]) && (next < 0 || idx[s][pos[k]] < next) {
				next = idx[s][pos[k]]
			}
		}
		if next < 0 {
			return buf
		}
		buf = append(buf, next)
		for k, s := range u.servers {
			if pos[k] < len(idx[s]) && idx[s][pos[k]] == next {
				pos[k]++
			}
		}
	}
}

// connTrace is one connection's propagation state immediately after a unit.
type connTrace struct {
	conn   int
	env    minplus.Curve
	delay  float64
	next   int
	stages []Stage
}

// serverBacklog is one unit server's recorded backlog bound.
type serverBacklog struct {
	server  int
	backlog float64
}

// unitTrace records the post-unit state of every crossing connection and
// the backlog bounds of the unit's servers. All values are in normalized
// units and immutable once recorded. Pair slices, not maps: a unit crosses
// a handful of connections, and the churn-heavy paths (remapShrunkTrace in
// particular) copy traces wholesale, which a slice does in one allocation
// with no rehashing. post is in increasing connection order: it doubles as
// the unit's crossing set when a later trial leaves the unit clean.
type unitTrace struct {
	servers []int
	post    []connTrace
	backlog []serverBacklog
}

// connSet is a bitset over connection indices: a trial's dirty closure.
type connSet []uint64

func (s connSet) has(c int) bool { return s[c>>6]&(1<<(c&63)) != 0 }

// add inserts c and reports whether it was absent.
func (s connSet) add(c int) bool {
	fresh := !s.has(c)
	s[c>>6] |= 1 << (c & 63)
	return fresh
}

// touches reports whether a connection the trace recorded is in dirty,
// which indexes the trial network: past a removed connection (none when
// negative) the recorded indices sit one higher.
func (t *unitTrace) touches(dirty connSet, removed int) bool {
	for i := range t.post {
		c := t.post[i].conn
		if removed >= 0 && c > removed {
			c--
		}
		if dirty.has(c) {
			return true
		}
	}
	return false
}

// recordUnit snapshots the traced propagation's state after a unit was
// applied. Envelopes and stage lists are kept as they are: a traced
// propagation never recycles or appends to either in place (see
// newTracedPropagation).
func recordUnit(u unitSpec, conns []int, p *propagation) *unitTrace {
	t := &unitTrace{
		servers: u.servers,
		post:    make([]connTrace, 0, len(conns)),
		backlog: make([]serverBacklog, 0, len(u.servers)),
	}
	for _, c := range conns {
		t.post = append(t.post, connTrace{conn: c, env: p.env[c], delay: p.delay[c], next: p.next[c], stages: p.stage[c]})
	}
	for _, s := range u.servers {
		t.backlog = append(t.backlog, serverBacklog{server: s, backlog: p.backlog[s]})
	}
	return t
}

// replayUnit splices the recorded post-unit state into the propagation.
// The stage slices are aliased, not copied: the one appender
// (propagation.advance) copies a traced propagation's list on every
// append, so the immutable trace can never be written through a replayed
// alias — including by concurrent Extends replaying the same trace.
func replayUnit(t *unitTrace, p *propagation) {
	for i := range t.post {
		st := &t.post[i]
		p.env[st.conn] = st.env
		p.delay[st.conn] = st.delay
		p.next[st.conn] = st.next
		p.stage[st.conn] = st.stages
	}
	for _, sb := range t.backlog {
		p.backlog[sb.server] = sb.backlog
	}
}

// Baseline is a fully analyzed network plus the per-unit trace that Extend
// reuses. A Baseline is immutable and safe for concurrent Extend calls.
//
// Beside the trace it owns what a trial would otherwise re-derive from the
// whole network: the route graph, the ConnectionIndex and the source
// envelopes. Extend and Shrink derive the trial's copies by touching only
// the rows and entries of the one connection that changes, so the
// bookkeeping of a trial is proportional to what it can influence; the
// envelopes' point arrays are shared along the whole derivation chain.
type Baseline struct {
	core  stepCore
	orig  *topo.Network // caller-unit copy of the analyzed network
	norm  *topo.Network // normalized view (aliases orig when scale == 1)
	scale float64
	// chk validates one-candidate extensions of orig in O(candidate)
	// instead of re-validating the whole trial network; nil (e.g. after a
	// failed witness recomputation) degrades every check to the full path.
	chk   *topo.Checker
	graph *topo.Graph     // norm's route graph
	idx   [][]int         // norm.ConnectionIndex()
	src   []minplus.Curve // norm's source envelopes, by connection

	// The analysis itself, filled by run. units is the core's ordered
	// partition of norm and trace the recorded state after each of them,
	// indexed by the unit's first server (a partition puts every server in
	// exactly one unit); both stay nil on an unstable baseline.
	units []unitSpec
	trace []*unitTrace
	res   *Result // normalized-internal result
	// unstable marks a baseline whose own network is unstable or
	// unbounded; Extend degenerates to all-Inf exactly like the full pass.
	unstable bool
}

// NewBaseline implements Incremental for the decomposed analysis.
func (Decomposed) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(decomposedCore{}, net)
}

// NewBaseline implements Incremental for the integrated analysis.
func (a Integrated) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(a.core(), net)
}

// NewBaseline implements Incremental for the static-priority integrated
// analysis.
func (a IntegratedSP) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(a.core(), net)
}

// copyNetwork clones the network's top-level slices so the baseline owns
// its view of servers and connections.
func copyNetwork(net *topo.Network) *topo.Network {
	cp := &topo.Network{
		Servers:     make([]server.Server, len(net.Servers)),
		Connections: make([]topo.Connection, len(net.Connections)),
	}
	copy(cp.Servers, net.Servers)
	copy(cp.Connections, net.Connections)
	return cp
}

func newBaseline(core stepCore, net *topo.Network) (*Baseline, error) {
	orig := copyNetwork(net)
	// Baselines are built uncancellable: a half-built baseline would
	// poison every later Extend, so the build always runs to completion.
	b, err := analyze(context.Background(), core, orig, true)
	if err != nil {
		return nil, err
	}
	b.orig, b.chk = orig, topo.NewCheckerFromGraph(orig, b.graph)
	return b, nil
}

// analyzeOnce is a whole-network analysis whose result nobody keeps as a
// baseline: Decomposed, Integrated and IntegratedSP answer Analyze with it.
func analyzeOnce(ctx context.Context, core stepCore, net *topo.Network) (*Result, error) {
	b, err := analyze(ctx, core, net, false)
	if err != nil {
		return nil, err
	}
	return denormalizeBacklogs(b.res, b.scale), nil
}

// analyze validates and normalizes net and runs core over it from scratch.
// keep records the unit traces, for a caller that keeps the run: a
// baseline, or ServiceCurve reading its cross traffic off them.
func analyze(ctx context.Context, core stepCore, net *topo.Network, keep bool) (*Baseline, error) {
	norm, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	if err := core.check(norm); err != nil {
		return nil, err
	}
	b := fresh(core, norm, scale, g, keep)
	if _, err := b.run(ctx, nil, nil, -1); err != nil {
		return nil, err
	}
	return b, nil
}

// fresh is what a run from scratch starts from; a kept run also gets the
// source envelopes its traced propagation starts from.
func fresh(core stepCore, norm *topo.Network, scale float64, g *topo.Graph, keep bool) *Baseline {
	b := &Baseline{core: core, norm: norm, scale: scale, graph: g, idx: norm.ConnectionIndex()}
	if keep {
		b.src = make([]minplus.Curve, len(norm.Connections))
		for i, c := range norm.Connections {
			b.src[i] = c.SourceEnvelope()
		}
	}
	return b
}

// run analyzes the receiver's network and fills in its units, trace and
// result; everything else the caller has set. It is the only loop that
// applies a stepCore. Units the change from the already analyzed baseline
// from cannot influence are replayed from its trace: path is the route of
// the one connection the change adds or removes, removed that connection's
// index in from's network when it is a release (negative otherwise). A nil
// from analyzes from scratch.
//
// A unit is dirty iff its server tuple did not exist in from's partition,
// it holds a server of path, or a connection crossing it is dirty; every
// connection crossing a dirty unit becomes dirty. A clean unit's crossing
// set is exactly what its trace recorded, so only dirty units pay for
// deriving theirs.
//
// Units run one dependency level at a time (levelizeSubnetworks). Units of
// a level share no connection (one crossing both would order them), so
// whether one is dirty depends on earlier levels alone; the level's dirty
// units run concurrently (analyzeLevel), and the connections crossing them
// turn dirty after the join, since connSet words are shared.
//
// A receiver without source envelopes (see fresh) is a run nobody keeps: it
// runs on the pooled propagation and records no trace.
func (b *Baseline) run(ctx context.Context, from *Baseline, path []int, removed int) (ExtendStats, error) {
	net := b.norm
	// The candidate of an extension gets dirty like any connection, but
	// Affected counts existing connections only.
	candidate := 0
	if from != nil && removed < 0 {
		candidate = 1
	}
	degraded := func() (ExtendStats, error) {
		b.unstable = true
		b.res = allInf(b.core.name(), net)
		return ExtendStats{Affected: len(net.Connections) - candidate}, nil
	}
	if !net.Stable() {
		return degraded()
	}
	tm, partStart := timingsFrom(ctx), time.Now()
	units := from.unitsFor(b)
	derived := units == nil
	if derived {
		var err error
		if units, err = b.core.units(b.graph); err != nil {
			return ExtendStats{}, err
		}
	}
	levels := levelizeSubnetworks(b.graph, units)
	if tm != nil && derived {
		tm.observe(&tm.Partition, partStart)
	}
	var (
		p     *propagation
		dirty connSet
		trace []*unitTrace
	)
	if b.src == nil {
		p = newPropagation(net)
	} else {
		sc := tracedScratchPool.Get().(*tracedScratch)
		defer tracedScratchPool.Put(sc)
		p = newTracedPropagation(net, b.src, sc)
		dirty = make(connSet, (len(net.Connections)+63)/64)
		trace = make([]*unitTrace, len(net.Servers))
	}
	onPath := func(s int) bool { return slices.Contains(path, s) }
	apply := func(u unitSpec) (bool, error) {
		if canceled(ctx) {
			return false, nil
		}
		return b.core.apply(ctx, net, b.idx, u, p)
	}
	var (
		todo  []unitSpec
		conns []int
		stats ExtendStats
	)
	for _, level := range levels {
		if canceled(ctx) {
			return stats, ctxErr(ctx.Err())
		}
		todo = todo[:0]
		for _, u := range level {
			if old := from.traceOf(u); old != nil && !slices.ContainsFunc(u.servers, onPath) && !old.touches(dirty, removed) {
				old = remapShrunkTrace(old, removed)
				replayUnit(old, p)
				trace[u.servers[0]] = old
				stats.ReplayedUnits++
				continue
			}
			todo = append(todo, u)
		}
		ok, err := analyzeLevel(todo, apply)
		if err != nil {
			return stats, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return stats, ctxErr(cerr)
		}
		if !ok {
			return degraded()
		}
		stats.RecomputedUnits += len(todo)
		if trace == nil {
			continue
		}
		for _, u := range todo {
			conns = u.crossing(b.idx, conns[:0])
			for _, c := range conns {
				if dirty.add(c) {
					stats.Affected++
				}
			}
			trace[u.servers[0]] = recordUnit(u, conns, p)
		}
	}
	stats.Affected -= candidate
	b.units, b.trace, b.res = units, trace, p.result(b.core.name())
	return stats, nil
}

// levelizeSubnetworks cuts a topologically ordered partition into
// dependency levels: a unit's level is one past the deepest level among
// the units feeding it, so every unit of a level only depends on earlier
// levels. Order within a level follows the input order, keeping the
// grouping deterministic.
func levelizeSubnetworks(g *topo.Graph, ordered []unitSpec) [][]unitSpec {
	owner := subnetOwner(g.Servers(), ordered)
	edges := unitEdges(g, ordered, owner)
	// ordered is topological, so every edge points from a smaller to a
	// larger index: relaxing edges in ascending from-index order computes
	// the exact longest-path level in one pass.
	level := make([]int, len(ordered))
	maxLevel, u := 0, 0 // relax reads the loop's u: one closure for all units
	relax := func(v int) {
		if level[v] < level[u]+1 {
			level[v] = level[u] + 1
		}
	}
	for u = range ordered {
		edges(u, relax)
		if level[u] > maxLevel {
			maxLevel = level[u]
		}
	}
	levels := make([][]unitSpec, maxLevel+1)
	for i, sn := range ordered {
		levels[level[i]] = append(levels[level[i]], sn)
	}
	return levels
}

// analyzeLevel applies f to every unit of one dependency level and reports
// the outcome of the first unit, in level order, that failed: f's error, or
// false when a bound was unbounded. With two or more units and more than
// one core the units run concurrently: they write disjoint entries of the
// propagation state, so no synchronization beyond the join is needed.
func analyzeLevel(level []unitSpec, f func(unitSpec) (bool, error)) (bool, error) {
	workers := min(maxParallelWorkers(), len(level))
	if workers <= 1 {
		for _, u := range level {
			if ok, err := f(u); !ok || err != nil {
				return ok, err
			}
		}
		return true, nil
	}
	oks, errs := make([]bool, len(level)), make([]error, len(level))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(level); i = int(next.Add(1)) - 1 {
				oks[i], errs[i] = f(level[i])
			}
		}()
	}
	wg.Wait()
	for i := range level {
		if !oks[i] || errs[i] != nil {
			return oks[i], errs[i]
		}
	}
	return true, nil
}

// unitsFor returns the receiver's unit list when trial can reuse it: the
// partition depends only on an order both graphs still share. Unit specs
// are immutable server tuples, so sharing the slice across baselines is
// safe. Nil (also on a nil receiver) means re-derive.
func (b *Baseline) unitsFor(trial *Baseline) []unitSpec {
	if b != nil && b.core.reusableUnits() && trial.graph.SharesOrder(b.graph) {
		return b.units
	}
	return nil
}

// traceOf returns the receiver's recorded trace of exactly the unit u, or
// nil when its partition had no such unit (or on a nil receiver).
func (b *Baseline) traceOf(u unitSpec) *unitTrace {
	if b == nil || b.trace == nil {
		return nil
	}
	if t := b.trace[u.servers[0]]; t != nil && slices.Equal(t.servers, u.servers) {
		return t
	}
	return nil
}

// Result returns the baseline's full analysis result in the caller's
// units. The returned slices are copies.
func (b *Baseline) Result() *Result {
	return exportResult(b.res, b.scale)
}

// ValidateExtend validates trial — the baseline's network plus exactly one
// appended candidate, in caller units — returning exactly the error
// trial.Validate() would produce, in O(candidate) on the fast path. A nil
// baseline (or one without a checker) degrades to the full validation, so
// admission-layer prechecks can call it unconditionally.
func (b *Baseline) ValidateExtend(trial *topo.Network) error {
	if b == nil {
		return trial.Validate()
	}
	return b.chk.ValidateExtend(trial)
}

// extendIndex derives the trial's ConnectionIndex from the baseline's: the
// candidate sits at the last index, so only the rows of the servers on its
// route change. Touched rows are reallocated (the cached rows are shared
// with the baseline and possibly its ancestors); untouched rows alias the
// cache, which is safe because index rows are never written after
// construction.
func (b *Baseline) extendIndex(path []int) [][]int {
	candIdx := len(b.norm.Connections)
	out := append([][]int(nil), b.idx...)
	for _, s := range path {
		out[s] = appendOne(out[s], candIdx)
	}
	return out
}

// Connections returns how many connections the baseline covers.
func (b *Baseline) Connections() int { return len(b.orig.Connections) }

// exportResult copies a normalized-internal result and converts bit-valued
// bounds back to caller units (delays are scale-invariant).
func exportResult(r *Result, scale float64) *Result {
	out := &Result{
		Algorithm: r.Algorithm,
		Bounds:    append([]float64(nil), r.Bounds...),
		Stages:    append([][]Stage(nil), r.Stages...),
		Backlogs:  append([]float64(nil), r.Backlogs...),
	}
	return denormalizeBacklogs(out, scale)
}

// ExtendStats describes how much work an Extend call avoided.
type ExtendStats struct {
	// Affected counts the existing connections whose bounds had to be
	// recomputed (the candidate itself is not counted).
	Affected int
	// RecomputedUnits and ReplayedUnits partition the trial partition's
	// units into those analyzed for real and those spliced from cache.
	RecomputedUnits int
	ReplayedUnits   int
}

// Extension is the outcome of extending a baseline with one candidate.
type Extension struct {
	Stats    ExtendStats
	promoted *Baseline
}

// Result returns the trial network's analysis result (admitted connections
// first, the candidate last) in caller units. The slices are copies.
func (e *Extension) Result() *Result { return e.promoted.Result() }

// Promote returns a Baseline for the extended network, reusing every
// replayed unit's trace, so committing an admission costs no extra
// analysis. The promoted baseline is independent of the original.
func (e *Extension) Promote() *Baseline { return e.promoted }

// Extend analyzes the baseline's network plus one candidate connection,
// recomputing only the units inside the candidate's interference closure.
// The result is bit-identical to core's full analysis of the trial
// network.
func (b *Baseline) Extend(cand topo.Connection) (*Extension, error) {
	return b.ExtendContext(context.Background(), cand)
}

// ExtendContext is Extend with cooperative cancellation: the unit replay
// loop checks the context between units (and recomputed units observe it
// internally), returning its error once it is done. An uncancelled call is
// bit-identical to Extend.
func (b *Baseline) ExtendContext(ctx context.Context, cand topo.Connection) (*Extension, error) {
	// Trial in caller units, candidate appended last so existing
	// connection indices are stable.
	trialOrig := &topo.Network{Servers: b.orig.Servers, Connections: appendOne(b.orig.Connections, cand)}
	// The baseline's own network was validated when it was built, so only
	// the candidate needs checking — O(candidate) via the cached checker
	// instead of re-validating the whole trial network on every admission
	// test. core.check inspects only the servers (e.g. the FIFO-only
	// rule), which the candidate does not change.
	if err := b.chk.ValidateExtend(trialOrig); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	// Trial in normalized units: the scale depends only on the servers,
	// which the candidate does not change.
	trial := trialOrig
	if b.scale != 1 {
		normalizeConnection(&cand, b.scale)
		trial = &topo.Network{Servers: b.norm.Servers, Connections: appendOne(b.norm.Connections, cand)}
	}
	t := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
		chk:   b.chk.Extend(trialOrig),
		graph: b.graph.Extend(cand),
		idx:   b.extendIndex(cand.Path),
		src:   appendOne(b.src, cand.SourceEnvelope()),
	}
	return t.replay(ctx, b, cand.Path, -1)
}

// replay runs the trial t against the baseline it was derived from and
// wraps the outcome; an unstable trial is never committed, but Promote
// stays total by handing back the unstable baseline.
func (t *Baseline) replay(ctx context.Context, from *Baseline, path []int, removed int) (*Extension, error) {
	stats, err := t.run(ctx, from, path, removed)
	if err != nil {
		return nil, err
	}
	return &Extension{Stats: stats, promoted: t}, nil
}

// appendOne returns a copy of s with x appended, sized exactly: s is
// shared with the baseline (and concurrent trials), so it is never
// appended to in place.
func appendOne[T any](s []T, x T) []T {
	out := make([]T, len(s)+1)
	copy(out, s)
	out[len(s)] = x
	return out
}

// removeAt returns a copy of s without index i.
func removeAt[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// remapShrunkTrace rebuilds a recorded unit trace with connection indices
// shifted down past the removed one (none when negative). Clean units are
// never crossed by the removed connection (that is what makes them clean),
// so its entry is absent by construction; the guard keeps a would-be bug
// loud in tests rather than silently replaying stale state.
func remapShrunkTrace(t *unitTrace, removed int) *unitTrace {
	// Traces are immutable once recorded, so when no index clears the
	// removed one — releases of recently admitted connections, the common
	// churn shape — the remap is the identity and the trace is shared
	// instead of copied.
	needsRemap := false
	for i := range t.post {
		c := t.post[i].conn
		if c == removed {
			panic("analysis: shrink replayed a unit crossed by the removed connection")
		}
		if c > removed {
			needsRemap = true
		}
	}
	if removed < 0 || !needsRemap {
		return t
	}
	out := &unitTrace{servers: t.servers, post: append([]connTrace(nil), t.post...), backlog: t.backlog}
	for i := range out.post {
		if out.post[i].conn > removed {
			out.post[i].conn--
		}
	}
	return out
}

// Shrink analyzes the baseline's network with the connection at index
// remove released, recomputing only the units inside the removed
// connection's interference closure and replaying the recorded traces
// (indices remapped) for every other unit. The result is bit-identical to
// core's full analysis of the shrunken network, by the same induction as
// Extend: a unit not crossed by the removed connection and crossed by no
// dirty survivor saw exactly the same crossing set and entry states in the
// baseline run, so its recorded outputs are what recomputation would
// produce. The returned Extension's Result covers the survivors in their
// new (shifted) indexing, and Promote hands back a baseline for the
// shrunken network at no extra cost.
func (b *Baseline) Shrink(remove int) (*Extension, error) {
	return b.ShrinkContext(context.Background(), remove)
}

// ShrinkContext is Shrink with cooperative cancellation between (and
// inside) recomputed units. An uncancelled call is bit-identical to Shrink.
func (b *Baseline) ShrinkContext(ctx context.Context, remove int) (*Extension, error) {
	if remove < 0 || remove >= len(b.orig.Connections) {
		return nil, fmt.Errorf("analysis: shrink index %d out of range [0,%d)", remove, len(b.orig.Connections))
	}
	// No re-validation: a valid network stays valid under connection
	// removal. The servers are untouched, every survivor was individually
	// valid, the name set only shrinks, and the route graph loses edges,
	// so no cycle can appear. core.check likewise inspects only the
	// (unchanged) servers. Releasing traffic can restore stability, so an
	// unstable baseline does not imply an unstable trial: its empty trace
	// just recomputes every unit.
	trialOrig := &topo.Network{Servers: b.orig.Servers, Connections: removeAt(b.orig.Connections, remove)}
	// Shrunken trial in normalized units: the scale depends only on the
	// servers, which a release does not change.
	trial := trialOrig
	if b.scale != 1 {
		trial = &topo.Network{Servers: b.norm.Servers, Connections: removeAt(b.norm.Connections, remove)}
	}
	gone := b.norm.Connections[remove]
	// Every index past the removed one shifts, so the index is rebuilt: one
	// counting pass, no sort.
	idx := trial.ConnectionIndex()
	t := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
		chk:   b.chk.Shrink(b.orig.Connections[remove]),
		graph: b.graph.Shrink(trial, idx, gone),
		idx:   idx,
		src:   removeAt(b.src, remove),
	}
	return t.replay(ctx, b, gone.Path, remove)
}

// decomposedCore adapts the decomposition analysis to the driver: one unit
// per server, in topological order.
type decomposedCore struct{}

func (decomposedCore) name() string                  { return "Decomposed" }
func (decomposedCore) check(net *topo.Network) error { return nil }

func (decomposedCore) reusableUnits() bool { return true }

func (decomposedCore) units(g *topo.Graph) ([]unitSpec, error) {
	order := g.Order()
	units := make([]unitSpec, len(order))
	for i := range order {
		units[i] = unitSpec{servers: order[i : i+1 : i+1]}
	}
	return units, nil
}

func (decomposedCore) apply(_ context.Context, net *topo.Network, idx [][]int, u unitSpec, p *propagation) (bool, error) {
	// One server is the unit of cancellation granularity here; the driver
	// checks the context before every unit. The pooled arena makes the
	// driver reuse the same scratch slabs across units.
	s := u.servers[0]
	ar := minplus.GetArena()
	defer ar.Release()
	return decomposedServerStep(net, s, idx[s], p, ar)
}

// chainCore (integrated.go) as a stepCore: one unit per chain of the
// partition, in subnetwork topological order.

func (cc chainCore) name() string { return cc.algo }

func (cc chainCore) check(net *topo.Network) error {
	return requireDiscipline(net, cc.algo, cc.serves, cc.discipline)
}

// requireDiscipline refuses a network with a server of another discipline
// than d; serves words d for the error.
func requireDiscipline(net *topo.Network, algo, serves string, d server.Discipline) error {
	for i, s := range net.Servers {
		if s.Discipline != d {
			return fmt.Errorf("analysis: %s applies to %s networks; server %d is %v", algo, serves, i, s.Discipline)
		}
	}
	return nil
}

// reusableUnits is false for the chain partition: chains follow the edge
// rates, and a candidate whose route bridges two chains merges them, so the
// unit list is re-derived per trial — from the trial's graph, in
// O(servers + edges).
func (cc chainCore) reusableUnits() bool { return false }

func (cc chainCore) units(g *topo.Graph) ([]unitSpec, error) {
	return orderSubnetworks(g, partition(g, cc.maxLen))
}

func (cc chainCore) apply(ctx context.Context, net *topo.Network, idx [][]int, u unitSpec, p *propagation) (bool, error) {
	return cc.chain(ctx, net, idx, u.servers, p), nil
}
