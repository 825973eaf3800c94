package analysis

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// This file holds the one driver, Baseline.run, and the incremental
// re-analysis it serves: a Baseline records, for a fully analyzed network,
// the propagation state after every analysis unit (one server for
// Decomposed, ServiceCurve and the guaranteed-rate network curve, one chain
// for Integrated, FIFO or static priority), and ExtendContext re-analyzes the
// network with one extra connection by recomputing only the units the
// candidate can influence and replaying the recorded state for every other
// unit (ShrinkContext likewise with one connection fewer). A plain Analyze
// is the same run, recording nothing.
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

// Incremental is the old name of Analyzer, from when only some analyzers
// had a baseline. It stays only because the benchmark module spells it.
type Incremental = Analyzer

// core is what the one driver (Baseline.run) runs for an analyzer: an
// ordered partition of the network into units, the computation that
// advances the propagation state across one unit, and what the analyzer
// makes of the completed run.
type core struct {
	name string
	// check, when set, is the analyzer's precondition at server s of the
	// normalized network whose ConnectionIndex is idx (the FIFO-only rule,
	// a reservation test). A run from scratch checks every server in index
	// order, an extension only its candidate's route in the same order; a
	// release only relaxes it.
	check func(net *topo.Network, idx [][]int, s int) error
	// maxLen bounds the servers of a unit. At 1 the units are the
	// singletons of the topological order, which a trial whose graph still
	// shares that order reuses. Otherwise they are the chain partition,
	// which follows the edge rates and which a bridging candidate can
	// merge, so every trial derives its own, in O(servers + edges).
	maxLen int
	// step runs one unit's computation; ok=false degrades the whole
	// analysis to +Inf. Units of one dependency level are stepped
	// concurrently; they share no connection. idx is the network's
	// ConnectionIndex, and ar the worker's arena, reset before every unit.
	// The context feeds the unit's own cancellation checkpoints; after
	// cancellation the outputs are meaningless and the driver consults
	// ctx.Err() before reading them.
	step func(ctx context.Context, net *topo.Network, idx [][]int, unit []int, p *propagation, ar *minplus.Arena) (ok bool, err error)
	// finish, when set, turns the completed run — b.res, all +Inf when
	// b.unstable — into the analyzer's result, observing ctx like a step.
	finish func(ctx context.Context, b *Baseline) (*Result, error)
	// traced keeps the unit traces, the envelopes that entered every unit,
	// on a run nobody keeps too, for a finish that reads them (entryEnv).
	traced bool
}

// units returns the ordered partition of the normalized network whose
// route graph is g.
func (c core) units(g *topo.Graph) ([]unitSpec, error) {
	if c.maxLen > 1 {
		return orderSubnetworks(g, partition(g, c.maxLen))
	}
	order := g.Order()
	units := make([]unitSpec, len(order))
	for i := range order {
		units[i] = unitSpec{servers: order[i : i+1 : i+1]}
	}
	return units, nil
}

// serves is the check of a core that applies to networks of one
// discipline: it refuses a server of another discipline than d, which
// kind words for the error.
func serves(algo, kind string, d server.Discipline) func(*topo.Network, [][]int, int) error {
	return func(net *topo.Network, _ [][]int, s int) error {
		if got := net.Servers[s].Discipline; got != d {
			return fmt.Errorf("analysis: %s applies to %s networks; server %d is %v", algo, kind, s, got)
		}
		return nil
	}
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

// Baseline is a fully analyzed network plus the per-unit trace its trials
// reuse. A Baseline is immutable and safe for concurrent trials.
//
// Beside the trace it owns what a trial would otherwise re-derive from the
// whole network: the route graph, the ConnectionIndex and the source
// envelopes. ExtendContext and ShrinkContext derive the trial's copies by
// touching only the rows and entries of the one connection that changes,
// so the bookkeeping of a trial is proportional to what it can influence;
// the envelopes' point arrays are shared along the whole derivation chain.
type Baseline struct {
	core  core
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
	// unbounded; a trial degenerates to all-Inf exactly like the full pass.
	unstable bool
}

// NewBaseline implements Analyzer for the decomposed analysis.
func (Decomposed) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(decomposedCore, net)
}

// NewBaseline implements Analyzer for the integrated analysis.
func (a Integrated) NewBaseline(net *topo.Network) (*Baseline, error) {
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

func newBaseline(c core, net *topo.Network) (*Baseline, error) {
	orig := copyNetwork(net)
	// Baselines are built uncancellable: a half-built baseline would
	// poison every later trial, so the build always runs to completion.
	b, err := analyze(context.Background(), c, orig, true)
	if err != nil {
		return nil, err
	}
	b.orig, b.chk = orig, topo.NewCheckerFromGraph(orig, b.graph)
	return b, nil
}

// analyzeOnce is a whole-network analysis whose result nobody keeps as a
// baseline: every analyzer answers Analyze and AnalyzeContext with it.
func analyzeOnce(ctx context.Context, c core, net *topo.Network) (*Result, error) {
	b, err := analyze(ctx, c, net, c.traced)
	if err != nil {
		return nil, err
	}
	return denormalizeBacklogs(b.res, b.scale), nil
}

// analyze validates and normalizes net and runs c over it from scratch.
// keep records the unit traces, for a caller that keeps the run (a
// baseline) or a core that is traced.
func analyze(ctx context.Context, c core, net *topo.Network, keep bool) (*Baseline, error) {
	norm, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	b := &Baseline{core: c, norm: norm, scale: scale, graph: g, idx: norm.ConnectionIndex()}
	if c.check != nil {
		for s := range norm.Servers {
			if err := c.check(norm, b.idx, s); err != nil {
				return nil, err
			}
		}
	}
	if keep {
		// The source envelopes the traced propagation starts from.
		b.src = make([]minplus.Curve, len(norm.Connections))
		for i, conn := range norm.Connections {
			b.src[i] = conn.SourceEnvelope()
		}
	}
	if _, err := b.run(ctx, nil, nil, -1); err != nil {
		return nil, err
	}
	return b, nil
}

// run analyzes the receiver's network and fills in its units, trace and
// result; everything else the caller has set. It is the only loop that
// steps a core. Units the change from the already analyzed baseline from
// cannot influence are replayed from its trace: path is the route of the
// one connection the change adds or removes, removed that connection's
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
// units run concurrently (fanOut), and the connections crossing them turn
// dirty after the join, since connSet words are shared.
//
// A receiver without source envelopes (see analyze) is a run nobody keeps:
// it runs on the pooled propagation and records no trace.
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
		b.res = allInf(b.core.name, net)
		return ExtendStats{Affected: len(net.Connections) - candidate}, b.finish(ctx)
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
	var (
		todo  []unitSpec
		conns []int
		stats ExtendStats
	)
	step := func(ar *minplus.Arena, i int) error {
		ok, err := b.core.step(ctx, net, b.idx, todo[i].servers, p, ar)
		if err == nil && !ok {
			err = errUnbounded
		}
		return err
	}
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
		err := fanOut(ctx, len(todo), step)
		if err != nil && err != errUnbounded {
			return stats, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return stats, ctxErr(cerr)
		}
		if err != nil {
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
	b.units, b.trace, b.res = units, trace, p.result(b.core.name)
	return stats, b.finish(ctx)
}

// errUnbounded is a unit's report, inside run, that a bound was unbounded.
var errUnbounded = errors.New("analysis: unbounded bound")

// finish hands the completed run to the core's finish, when it has one.
func (b *Baseline) finish(ctx context.Context) (err error) {
	if b.core.finish != nil {
		b.res, err = b.core.finish(ctx, b)
	}
	return err
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

// unitsFor returns the receiver's unit list when trial can reuse it: the
// partition depends only on an order both graphs still share. Unit specs
// are immutable server tuples, so sharing the slice across baselines is
// safe. Nil (also on a nil receiver) means re-derive.
func (b *Baseline) unitsFor(trial *Baseline) []unitSpec {
	if b != nil && b.core.maxLen == 1 && trial.graph.SharesOrder(b.graph) {
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

// ExtendStats describes how much work a trial avoided.
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

// ExtendContext analyzes the baseline's network plus one candidate
// connection, recomputing only the units inside the candidate's
// interference closure. The result is bit-identical to the core's full
// analysis of the trial network. The unit replay loop checks the context
// between units (and recomputed units observe it internally), returning its
// error once it is done.
func (b *Baseline) ExtendContext(ctx context.Context, cand topo.Connection) (*Extension, error) {
	// Trial in caller units, candidate appended last so existing
	// connection indices are stable.
	trialOrig := &topo.Network{Servers: b.orig.Servers, Connections: appendOne(b.orig.Connections, cand)}
	// The baseline's own network was validated when it was built, so only
	// the candidate needs checking — O(candidate) via the cached checker
	// instead of re-validating the whole trial network on every admission
	// test — and so does the core's check, at the servers of its route.
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
	if b.core.check != nil {
		route := slices.Clone(cand.Path)
		slices.Sort(route)
		for _, s := range route {
			if err := b.core.check(trial, t.idx, s); err != nil {
				return nil, err
			}
		}
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

// ShrinkContext analyzes the baseline's network with the connection at
// index remove released, recomputing only the units inside the removed
// connection's interference closure and replaying the recorded traces
// (indices remapped) for every other unit. The result is bit-identical to
// the core's full analysis of the shrunken network, by the same induction
// as ExtendContext: a unit not crossed by the removed connection and
// crossed by no dirty survivor saw exactly the same crossing set and entry
// states in the baseline run, so its recorded outputs are what
// recomputation would produce. The returned Extension's Result covers the survivors in their
// new (shifted) indexing, and Promote hands back a baseline for the
// shrunken network at no extra cost. The context is observed between (and
// inside) recomputed units.
func (b *Baseline) ShrinkContext(ctx context.Context, remove int) (*Extension, error) {
	if remove < 0 || remove >= len(b.orig.Connections) {
		return nil, fmt.Errorf("analysis: shrink index %d out of range [0,%d)", remove, len(b.orig.Connections))
	}
	// No re-validation: a valid network stays valid under connection
	// removal. The servers are untouched, every survivor was individually
	// valid, the name set only shrinks, and the route graph loses edges,
	// so no cycle can appear. The core's check only gets easier to pass
	// with one connection fewer. Releasing traffic can restore stability,
	// so an unstable baseline does not imply an unstable trial: its empty
	// trace just recomputes every unit.
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
