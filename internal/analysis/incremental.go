package analysis

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"delaycalc/internal/minplus"
	"delaycalc/internal/par"
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
	// shares that order reuses, levels too. Otherwise they are the chain partition,
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
	// Such a finish cannot bound a degraded run, which therefore has no
	// stage (Baseline.Stages).
	traced bool
}

// plan returns the ordered partition of the normalized network whose
// route graph is g, cut into dependency levels (orderLevels).
func (c core) plan(g *topo.Graph) ([]unitSpec, [][]unitSpec, error) {
	if c.maxLen > 1 {
		return orderLevels(g, partition(g, c.maxLen))
	}
	order := g.Order()
	units := make([]unitSpec, len(order))
	for i := range order {
		units[i] = unitSpec{servers: order[i : i+1 : i+1]}
	}
	return orderLevels(g, units)
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

// crossing calls yield with the index of every connection with a hop in
// the unit, in increasing order: the merge of its servers' ConnectionIndex
// rows, each of which is sorted.
func (u unitSpec) crossing(idx [][]int, yield func(c int)) {
	if len(u.servers) == 1 {
		for _, c := range idx[u.servers[0]] {
			yield(c)
		}
		return
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
			return
		}
		yield(next)
		for k, s := range u.servers {
			if pos[k] < len(idx[s]) && idx[s][pos[k]] == next {
				pos[k]++
			}
		}
	}
}

// connTrace is what a unit did to one crossing connection: the delay bound
// it charged (the connection's stage of the unit), how many hops of the
// route it covered, and the envelope the connection left it with. A replay
// adds delay and hops to the connection's running totals, which repeats
// the recording run's additions in the same order (see Baseline.run), and
// the stage is rebuilt on demand from the route (Baseline.Stages).
type connTrace struct {
	conn  int
	hops  int
	delay float64
	env   minplus.Curve
}

// unitTrace records what a unit did to every crossing connection; the
// backlog bounds of its servers are the run's (Baseline.res). All values are
// in normalized units and immutable once recorded; the envelopes of a
// recomputed unit share one exact-size point slab (recordUnit). A slice, not
// a map: a unit crosses a handful of connections, and the churn-heavy paths
// (remapShrunkTrace in particular) copy traces wholesale, which a slice does
// in one allocation with no rehashing. post is in increasing connection
// order: it doubles as the unit's crossing set when a later trial leaves the
// unit clean.
type unitTrace struct {
	servers []int
	post    []connTrace
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

// recordUnit snapshots the traced propagation's state after the unit u was
// applied, in the worker that applied it and before that worker's arena is
// reset: every crossing connection's step slot, and its envelope copied out
// of the arena into one exact-size point slab the trace owns. An envelope
// several connections left the unit on (one storage: the arena's shared
// shifts) is copied once and they all point at the copy, so the sharing
// lasts into later units and every replay. p.env is pointed at the copies,
// which is what later units read.
func recordUnit(u unitSpec, idx [][]int, p *propagation) *unitTrace {
	n, pts := 0, 0
	var copies envCopies
	u.crossing(idx, func(c int) {
		n++
		if _, ok := copies.find(p.env[c]); !ok {
			copies.add(p.env[c], p.env[c])
			pts += p.env[c].NumPoints()
		}
	})
	t := &unitTrace{servers: u.servers, post: make([]connTrace, 0, n)}
	// The second pass makes the first pass's decisions: the same envelopes
	// in the same order through an empty ring.
	slab := make([]minplus.Point, 0, pts)
	copies = envCopies{}
	u.crossing(idx, func(c int) {
		ct := p.step[c]
		var ok bool
		if ct.env, ok = copies.find(p.env[c]); !ok {
			slab, ct.env = p.env[c].AppendTo(slab)
			copies.add(p.env[c], ct.env)
		}
		p.env[c] = ct.env
		t.post = append(t.post, ct)
	})
	return t
}

// envCopies remembers recordUnit's copies of the latest distinct envelopes
// a unit left, by storage (minplus.Curve.SameStorage). A unit's connections
// come in index order, and equal envelopes there are a few curves repeated,
// so a short ring catches the repeats and bounds a miss's scan; an envelope
// that falls out of it is only copied again.
type envCopies struct {
	src, dst [8]minplus.Curve
	n        int // envelopes added; the next goes to n % len(src)
}

// find returns the copy of env, if the ring still holds it.
func (e *envCopies) find(env minplus.Curve) (minplus.Curve, bool) {
	for i := range e.src[:min(e.n, len(e.src))] {
		if e.src[i].SameStorage(env) {
			return e.dst[i], true
		}
	}
	return minplus.Curve{}, false
}

// add remembers that dst is the copy of src.
func (e *envCopies) add(src, dst minplus.Curve) {
	e.src[e.n%len(e.src)], e.dst[e.n%len(e.src)] = src, dst
	e.n++
}

// replayUnit applies a recorded unit to the propagation: each crossing
// connection is charged the unit's delay and hops and takes the recorded
// envelope, which is shared, never written (a traced advance shifts into
// the worker's arena, and recordUnit copies into a fresh slab) — so
// concurrent trials may replay the same trace. The unit's servers take the
// backlog bounds of the run that recorded it, backlogs: a server's bound is
// set by its own unit alone.
func replayUnit(t *unitTrace, p *propagation, backlogs []float64) {
	for i := range t.post {
		st := &t.post[i]
		p.env[st.conn] = st.env
		p.delay[st.conn] += st.delay
		p.next[st.conn] += st.hops
	}
	for _, s := range t.servers {
		p.backlog[s] = backlogs[s]
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
	// load is norm's, which decides whether the run degrades to +Inf, and
	// origLoad orig's, which a trial's Stable reports; they are one when
	// scale == 1. A trial derives both along its candidate's route.
	load, origLoad topo.Load

	// The analysis itself, filled by run. units is the core's ordered
	// partition of norm, levels the same units cut into dependency levels,
	// and trace the recorded state after each unit, indexed by the unit's
	// first server (a partition puts every server in exactly one unit); all
	// three stay nil on an unstable baseline.
	units  []unitSpec
	levels [][]unitSpec
	trace  []*unitTrace
	// res is the normalized-internal result. Its Backlogs are the run's
	// buffer bounds, which a trial replays for its clean units.
	res *Result
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
	b, rt, err := analyze(context.Background(), c, orig, true)
	if err != nil {
		return nil, err
	}
	b.orig, b.chk = orig, topo.NewCheckerFromRoutes(orig, rt)
	return b, nil
}

// analyzeOnce is a whole-network analysis whose result nobody keeps as a
// baseline: every analyzer answers Analyze and AnalyzeContext with it. The
// run's own vectors are the result's, since nothing else holds them.
func analyzeOnce(ctx context.Context, c core, net *topo.Network) (*Result, error) {
	b, _, err := analyze(ctx, c, net, c.traced)
	if err != nil {
		return nil, err
	}
	return denormalizeBacklogs(b.res, b.scale), nil
}

// analyze validates and normalizes net and runs c over it from scratch,
// handing back the routes of the normalized network it validated. keep
// records the unit traces, for a caller that keeps the run (a baseline) or
// a core that is traced.
func analyze(ctx context.Context, c core, net *topo.Network, keep bool) (*Baseline, topo.Routes, error) {
	norm, scale, rt, load, err := analyzable(net)
	if err != nil {
		return nil, topo.Routes{}, err
	}
	b := &Baseline{core: c, norm: norm, scale: scale, graph: rt.Graph, idx: rt.Index, load: rt.Load, origLoad: load}
	if c.check != nil {
		for s := range norm.Servers {
			if err := c.check(norm, b.idx, s); err != nil {
				return nil, topo.Routes{}, err
			}
		}
	}
	if keep {
		// The source envelopes the traced propagation starts from. They are
		// filled even when the run degrades: a trial derived from an
		// unstable baseline starts from them, and a release can make it
		// stable again.
		b.src = make([]minplus.Curve, len(norm.Connections))
		for i, c := range norm.Connections {
			b.src[i] = c.SourceEnvelope()
		}
	}
	if _, err := b.run(ctx, nil, nil, -1); err != nil {
		return nil, topo.Routes{}, err
	}
	return b, rt, nil
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
// Units run one dependency level at a time (orderLevels). Units of
// a level share no connection (one crossing both would order them), so
// whether one is dirty depends on earlier levels alone; the level's dirty
// units run concurrently (fanOut), each recorded by the worker that stepped
// it while its envelopes are still in that worker's arena, and the
// connections crossing them turn dirty after the join, since connSet words
// are shared.
//
// A receiver without source envelopes (see analyze) is a run nobody keeps:
// it records no trace. A run from scratch sets its propagation up beside
// the partition (par.Beside): the two read nothing the other writes, and
// together they are most of what precedes the first unit. A trial's
// propagation is a copy of its baseline's envelopes, too cheap to hand off.
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
	if b.load.Unstable {
		return degraded()
	}
	var (
		p     *propagation
		dirty connSet
		trace []*unitTrace
		setUp func()
	)
	if b.src == nil {
		setUp = func() { p = newPropagation(net) }
	} else {
		sc := tracedScratchPool.Get().(*tracedScratch)
		defer tracedScratchPool.Put(sc)
		setUp = func() { p = newTracedPropagation(net, b.src, sc) }
		dirty = make(connSet, (len(net.Connections)+63)/64)
		trace = make([]*unitTrace, len(net.Servers))
	}
	setUpDone := setUp
	if from == nil {
		setUpDone = par.Beside(setUp)
	}
	tm := timingsFrom(ctx)
	partStart := tm.now()
	units, levels := from.planFor(b)
	derived := units == nil
	if derived {
		var err error
		if units, levels, err = b.core.plan(b.graph); err != nil {
			setUpDone()
			return ExtendStats{}, err
		}
	}
	if tm != nil && derived {
		tm.observe(&tm.Partition, partStart)
	}
	setUpDone()
	onPath := func(s int) bool { return slices.Contains(path, s) }
	var (
		todo  []unitSpec
		stats ExtendStats
	)
	step := func(ar *minplus.Arena, i int) error {
		u := todo[i]
		ok, err := b.core.step(ctx, net, b.idx, u.servers, p, ar)
		if err == nil && !ok {
			err = errUnbounded
		}
		if err == nil && trace != nil {
			trace[u.servers[0]] = recordUnit(u, b.idx, p)
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
				replayUnit(old, p, from.res.Backlogs)
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
		if from == nil {
			continue // nothing to replay: no trace is looked up
		}
		for _, u := range todo {
			for _, ct := range trace[u.servers[0]].post {
				if dirty.add(ct.conn) {
					stats.Affected++
				}
			}
		}
	}
	stats.Affected -= candidate
	b.units, b.levels, b.trace, b.res = units, levels, trace, p.result(b.core.name)
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

// planFor returns the receiver's units and levels when trial can reuse
// them: the partition depends only on an order both graphs still share, and
// the levels only on the edges between its units, none of which appeared or
// vanished on the way (topo.Graph.SharesOrder). Unit specs are immutable
// server tuples, so sharing the slices across baselines is safe. Nil (also
// on a nil receiver) means re-derive.
func (b *Baseline) planFor(trial *Baseline) ([]unitSpec, [][]unitSpec) {
	if b != nil && b.core.maxLen == 1 && trial.graph.SharesOrder(b.graph) {
		return b.units, b.levels
	}
	return nil, nil
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
	out := &Result{
		Algorithm: b.res.Algorithm,
		Bounds:    slices.Clone(b.res.Bounds),
		Backlogs:  slices.Clone(b.res.Backlogs),
	}
	return denormalizeBacklogs(out, b.scale)
}

// Stages breaks every bound of the baseline's result into its per-stage
// contributions, indexed like Result's Bounds, in fresh storage on every
// call. A run that degraded to +Inf has no stage at all, unless the
// analyzer's finish bounds every route without the run's traces (the
// guaranteed-rate network curve). Under a network-curve finish each
// connection has one stage over its whole route. Otherwise, for every unit
// in order, each crossing connection has its recorded delay over the run of
// the unit's servers it crossed; units run in an order consistent with
// every route, so each connection's stages come out in route order. One
// slab holds the stages, at most one per hop, and one a copy of every
// unit's servers, which the stages of its crossing connections share.
func (b *Baseline) Stages() [][]Stage {
	conns := b.norm.Connections
	out := make([][]Stage, len(conns))
	if b.unstable && (b.core.finish == nil || b.core.traced) {
		return out
	}
	hops := 0
	for _, c := range conns {
		hops += len(c.Path)
	}
	if b.core.finish != nil {
		stageSlab := make([]Stage, len(conns))
		servers := make([]int, 0, hops)
		for i, c := range conns {
			lo := len(servers)
			servers = append(servers, c.Path...)
			stageSlab[i] = Stage{Servers: servers[lo:len(servers):len(servers)], Delay: b.res.Bounds[i]}
			out[i] = stageSlab[i : i+1 : i+1]
		}
		return out
	}
	stageSlab := make([]Stage, hops)
	off := 0
	for i, c := range conns {
		out[i] = stageSlab[off : off : off+len(c.Path)]
		off += len(c.Path)
	}
	tuples := make([]int, 0, len(b.norm.Servers))
	next := make([]int, len(conns)) // the first hop of each route no stage covers yet
	for _, u := range b.units {
		lo := len(tuples)
		tuples = append(tuples, u.servers...)
		tuple := tuples[lo:len(tuples):len(tuples)]
		for _, ct := range b.trace[u.servers[0]].post {
			c, at := ct.conn, 0
			if ct.hops < len(tuple) {
				at = slices.Index(tuple, conns[c].Path[next[c]])
			}
			out[c] = append(out[c], Stage{Servers: tuple[at : at+ct.hops : at+ct.hops], Delay: ct.delay})
			next[c] += ct.hops
		}
	}
	return out
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

// Conns returns the baseline's connections in caller units, without
// copying them. The list is immutable: the baseline never writes or appends
// to it, and neither may the caller, which may keep it as long as it likes.
func (b *Baseline) Conns() []topo.Connection { return b.orig.Connections }

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

// Bounds returns the trial network's delay bounds, indexed like Result's,
// without copying them: delays are scale-invariant, so the promoted
// baseline's own vector is already in caller units. It must not be
// modified.
func (e *Extension) Bounds() []float64 { return e.promoted.res.Bounds }

// Promote returns a Baseline for the extended network, reusing every
// replayed unit's trace, so committing an admission costs no extra
// analysis. The promoted baseline is independent of the original.
func (e *Extension) Promote() *Baseline { return e.promoted }

// ExtendContext analyzes the baseline's network plus one candidate
// connection, recomputing only the units inside the candidate's
// interference closure. The result is bit-identical to the core's full
// analysis of the trial network. The unit replay loop checks the context
// between units (and recomputed units observe it internally), returning its
// error once it is done. It is NewTrial followed by Trial.Run.
func (b *Baseline) ExtendContext(ctx context.Context, cand topo.Connection) (*Extension, error) {
	tr, err := b.NewTrial(cand)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return tr.Run(ctx)
}

// Trial is a baseline's network plus one candidate, derived and validated
// but not yet analyzed. Its connection list is the only copy of the set a
// trial makes: the extension's promoted baseline keeps it, so an admission
// that commits the trial stores no other.
type Trial struct {
	from   *Baseline
	net    *topo.Network // caller units, the candidate last
	stable bool          // net.Stable()
}

// NewTrial derives the trial network — the baseline's connections with cand
// appended last, so existing connection indices are stable — and validates
// it, returning exactly the error the trial's Validate would. The
// baseline's own network was validated when it was built, so only the
// candidate needs checking: O(candidate) via the cached checker.
func (b *Baseline) NewTrial(cand topo.Connection) (*Trial, error) {
	net := &topo.Network{Servers: b.orig.Servers, Connections: appendOne(b.orig.Connections, cand)}
	if err := b.chk.ValidateExtend(net); err != nil {
		return nil, err
	}
	return &Trial{from: b, net: net, stable: b.origLoad.StableWith(b.orig.Servers, cand)}, nil
}

// Stable reports whether the trial network is stable, exactly as its
// Network.Stable would, decided in O(candidate hops) from the baseline's
// load when the trial was derived.
func (tr *Trial) Stable() bool { return tr.stable }

// Network returns the trial network in caller units. It is shared with the
// trial's extension and must not be modified.
func (tr *Trial) Network() *topo.Network { return tr.net }

// Run analyzes the trial against the baseline it was derived from (see
// ExtendContext). The core's check runs here, at the servers of the
// candidate's route.
func (tr *Trial) Run(ctx context.Context) (*Extension, error) {
	b, trialOrig := tr.from, tr.net
	cand := trialOrig.Connections[len(trialOrig.Connections)-1]
	// Trial in normalized units: the scale depends only on the servers,
	// which the candidate does not change. The trial's baseline keeps its
	// own copy of the load's sums, made here rather than in NewTrial so that
	// a trial only tested for stability copies none.
	origLoad := b.origLoad.Extend(trialOrig.Servers, cand)
	trial, load := trialOrig, origLoad
	if b.scale != 1 {
		normalizeConnection(&cand, b.scale)
		trial = &topo.Network{Servers: b.norm.Servers, Connections: appendOne(b.norm.Connections, cand)}
		load = b.load.Extend(b.norm.Servers, cand)
	}
	t := &Baseline{core: b.core, orig: trialOrig, norm: trial, scale: b.scale,
		chk:      b.chk.Extend(trialOrig),
		graph:    b.graph.Extend(cand),
		idx:      b.extendIndex(cand.Path),
		src:      appendOne(b.src, cand.SourceEnvelope()),
		load:     load,
		origLoad: origLoad,
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
	out := &unitTrace{servers: t.servers, post: slices.Clone(t.post)}
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
		load:  b.load.Shrink(trial, idx, gone),
	}
	t.origLoad = t.load
	if b.scale != 1 {
		t.origLoad = b.origLoad.Shrink(trialOrig, idx, b.orig.Connections[remove])
	}
	return t.replay(ctx, b, gone.Path, remove)
}
