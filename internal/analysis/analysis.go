// Package analysis implements the end-to-end worst-case delay analyses the
// paper studies and compares:
//
//   - Decomposed: Cruz's decomposition-based analysis (one server at a
//     time, burstiness propagated, local delays summed).
//   - ServiceCurve: the induced-service-curve analysis (per-connection
//     leftover service curves convolved into a network service curve).
//   - Integrated: the paper's contribution — chains of up to ChainLength
//     consecutive servers (pairs by default, as in the paper) analyzed
//     jointly with the FIFO residual service curves (residual.go), the
//     sound realization of Theorem 1's idea: the delay dependency between
//     consecutive FIFO servers.
//
// Extensions the paper announces as ongoing work are also provided:
// static-priority servers (per-class leftover analysis in the decomposed
// pass, and in Integrated's chain step, which makes one pass per priority
// class against the leftover of the more urgent ones where a FIFO chain
// makes one pass), guaranteed-rate servers (per-connection rate-latency
// classes in the decomposed pass, and GuaranteedRateNetworkCurve, where
// the service-curve method is the right tool), and EDF servers
// (uniform-lateness bounds).
// One residual (residual.go) is the only place cross traffic is subtracted
// from a service curve.
//
// All analyzers consume a topo.Network and produce per-connection
// end-to-end delay bounds plus a per-stage breakdown. All four run on one
// driver (Baseline.run), so every one of them is cancellable and
// incremental: the two network-curve analyses are its decomposed run plus
// a finish over the completed run. One interface, Analyzer, says so: Name,
// Analyze, AnalyzeContext and NewBaseline.
package analysis

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// Stage records one step of a connection's per-stage delay breakdown.
type Stage struct {
	// Servers lists the server indices of the subnetwork this stage
	// covers (one server for decomposition, up to ChainLength consecutive
	// ones for the integrated analysis, the whole route for the
	// service-curve analyses).
	Servers []int
	// Delay is the worst-case delay bound contributed by the stage.
	Delay float64
}

// Result is the output of an analyzer run.
type Result struct {
	Algorithm string
	// Bounds holds one end-to-end delay bound per connection, indexed
	// like Network.Connections. +Inf marks an unstable or unanalyzable
	// connection.
	Bounds []float64
	// Stages breaks each bound into per-subnetwork contributions.
	Stages [][]Stage
	// Backlogs holds one worst-case buffer occupancy bound per server
	// (in bits), indexed like Network.Servers: the vertical deviation
	// between the server's aggregate input envelope and its service
	// line, valid for any work-conserving discipline. Zero for servers
	// no connection crosses.
	Backlogs []float64
}

// Bound returns the end-to-end bound of connection i.
func (r *Result) Bound(i int) float64 { return r.Bounds[i] }

// Backlog returns the buffer bound of server s (zero when the analyzer
// did not record backlogs).
func (r *Result) Backlog(s int) float64 {
	if s >= len(r.Backlogs) {
		return 0
	}
	return r.Backlogs[s]
}

// MaxBound returns the largest finite bound, or +Inf if any connection is
// unbounded.
func (r *Result) MaxBound() float64 {
	m := 0.0
	for _, b := range r.Bounds {
		if math.IsInf(b, 1) {
			return b
		}
		if b > m {
			m = b
		}
	}
	return m
}

// Analyzer computes end-to-end delay bounds for every connection of a
// network. Every analyzer runs on the one driver (Baseline.run), so each is
// cancellable and incremental.
type Analyzer interface {
	Name() string
	// Analyze is AnalyzeContext under context.Background().
	Analyze(net *topo.Network) (*Result, error)
	// AnalyzeContext behaves exactly like Analyze — an uncancelled run
	// returns bit-identical results — but observes the context at internal
	// checkpoints (theta-search candidate fan-out, chain positions, and
	// before every level and every unit of the driver) and returns the
	// context's error once it is done. Cancellation latency is therefore
	// bounded by a single curve operation, not a whole analysis.
	AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error)
	// NewBaseline fully analyzes the network and retains the per-unit
	// propagation trace a trial replays (Baseline.ExtendContext and
	// ShrinkContext), bit-identical to a full Analyze of the trial.
	NewBaseline(net *topo.Network) (*Baseline, error)
}

// Compile-time check: every analyzer of the package is one.
var _ = []Analyzer{Decomposed{}, Integrated{}, ServiceCurve{}, GuaranteedRateNetworkCurve{}}

// allInf builds a Result marking every connection unbounded, used when the
// network fails the stability precondition.
func allInf(name string, net *topo.Network) *Result {
	r := &Result{Algorithm: name}
	r.Bounds = make([]float64, len(net.Connections))
	r.Stages = make([][]Stage, len(net.Connections))
	for i := range r.Bounds {
		r.Bounds[i] = math.Inf(1)
	}
	return r
}

// propagation tracks, while servers are consumed in topological order, each
// connection's accumulated delay and its traffic envelope at the entrance
// of its next unprocessed hop.
type propagation struct {
	env     []minplus.Curve
	delay   []float64
	next    []int // index into Connection.Path of the next unprocessed hop
	stage   [][]Stage
	backlog []float64 // per-server buffer bound, filled as servers are seen
	// shift recycles each connection's envelope storage across the
	// per-subnetwork ShiftLefts: only the latest envelope (and its
	// immediate predecessor, still referenced by the analyzing chain's
	// scratch) is live, so double buffering per connection suffices.
	// Connections are advanced by at most one chain at a time, so the
	// per-slot discipline holds under level parallelism. Nil in a traced
	// propagation (see newTracedPropagation).
	shift *minplus.ShiftPool
	// step holds, in a traced propagation only, each connection's latest
	// advance: the delay bound and the hop count the unit it crossed last
	// charged it, which recordUnit reads (env stays empty here).
	step []connTrace
}

// newPropagation is the propagation of a run nobody keeps: every
// connection starts on its source envelope, shifts in a slot of its own in
// a shift pool, and collects its stages in a list of its own. It reads
// only the connections, so a run sets it up beside its partition
// (Baseline.run).
func newPropagation(net *topo.Network) *propagation {
	p := &propagation{
		env:     make([]minplus.Curve, len(net.Connections)),
		delay:   make([]float64, len(net.Connections)),
		next:    make([]int, len(net.Connections)),
		stage:   make([][]Stage, len(net.Connections)),
		backlog: make([]float64, len(net.Servers)),
	}
	// A connection accrues at most one stage per hop: one flat slab backs
	// every stage list, fixed-capacity sub-sliced so concurrent chains
	// append into disjoint ranges. Each envelope shifts in a slot of the
	// shift pool sized to its source envelope, since a shift never
	// lengthens a curve (minplus.ShiftPool.ShiftLeft).
	totalHops := 0
	for _, c := range net.Connections {
		totalHops += len(c.Path)
	}
	stageSlab := make([]Stage, 0, totalHops)
	for i, c := range net.Connections {
		n := len(stageSlab)
		stageSlab = stageSlab[:n+len(c.Path)]
		p.stage[i] = stageSlab[n : n : n+len(c.Path)]
	}
	for i, c := range net.Connections {
		p.env[i] = c.SourceEnvelope()
	}
	p.shift = minplus.NewShiftPool(p.env)
	return p
}

// tracedScratch pools the part of a traced propagation that is dead once
// the run returns: the live envelopes, hop cursors and step slots (delays
// and backlogs become the run's Result). The slots grow with headroom
// (grow): a scratch drawn by a network one connection larger than its last
// user's keeps its storage.
type tracedScratch struct {
	env  []minplus.Curve
	next []int
	step []connTrace
}

var tracedScratchPool = sync.Pool{New: func() any { return new(tracedScratch) }}

// newTracedPropagation is newPropagation for a run that is kept (a baseline
// build or trial, or the Decomposed run ServiceCurve reads), which records
// the state after every unit it computes (recordUnit). It has no shift pool
// and no stage lists: each advance shifts the connection's envelope in the
// stepping worker's arena and notes the step in the connection's slot, and
// the worker's recordUnit copies what the unit left into the trace before
// the arena is reset. Stage lists are assembled from the traces only when a
// result is exported (Baseline.stages). src holds the connections' source
// envelopes; they are only ever replaced, never written through. sc must
// not return to its pool before the run is over.
func newTracedPropagation(net *topo.Network, src []minplus.Curve, sc *tracedScratch) *propagation {
	sc.env = grow(sc.env, len(src))
	copy(sc.env, src)
	sc.next = grow(sc.next, len(src))
	clear(sc.next)
	sc.step = grow(sc.step, len(src))
	return &propagation{
		env:     sc.env,
		delay:   make([]float64, len(net.Connections)),
		next:    sc.next,
		backlog: make([]float64, len(net.Servers)),
		step:    sc.step,
	}
}

// grow is resize with append's headroom, for the traced scratch: its users
// are trials whose networks differ by a connection or two, so the exact
// length would reallocate every slot on almost every draw. The per-chain
// scratch keeps resize's exact lengths; headroom there raised
// analyze-full's live heap by a third.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// advance records that connection c crossed nHops hops, the servers of its
// stage, with delay bound d. It reports false when d is infinite, in which
// case no finite envelope can be propagated and the caller must abandon the
// analysis (the whole result degrades to +Inf, since downstream
// cross-traffic envelopes would be unknown). An untraced propagation keeps
// the stage, whose servers alias the unit's tuple: its run derived the
// partition itself, and nothing else reads it. A traced propagation shifts
// the envelope in ar, the stepping worker's arena, and keeps no stage:
// recordUnit copies the envelope out and the step slot says what the stage
// was. The shift is the arena's shared one: the members of a class or run
// that entered on one envelope take one delay, so they leave on one curve,
// which recordUnit copies once.
func (p *propagation) advance(c int, servers []int, d float64, nHops int, ar *minplus.Arena) bool {
	if math.IsInf(d, 1) {
		return false
	}
	p.delay[c] += d
	p.next[c] += nHops
	if p.shift == nil {
		p.env[c] = ar.ShiftLeftShared(p.env[c], d)
		p.step[c] = connTrace{conn: c, hops: nHops, delay: d}
		return true
	}
	p.env[c] = p.shift.ShiftLeft(c, p.env[c], d)
	p.stage[c] = append(p.stage[c], Stage{Servers: servers, Delay: d})
	return true
}

// result packages the accumulated state.
func (p *propagation) result(name string) *Result {
	return &Result{Algorithm: name, Bounds: p.delay, Stages: p.stage, Backlogs: p.backlog}
}

// recordBacklog stores the buffer bound of server s computed from its
// aggregate input envelope: the vertical deviation from the service line,
// valid for every work-conserving discipline.
func (p *propagation) recordBacklog(s int, agg minplus.Curve, capacity float64) {
	b := minplus.VerticalDeviation(agg, minplus.Rate(capacity))
	if b < 0 {
		b = 0
	}
	p.backlog[s] = b
}

// analyzable verifies the preconditions shared by all analyzers and
// returns the normalized view of net (see normalizeNetwork) with that
// view's routes — the one graph, index and load the validation, the
// topological order, the stability check and the partition of a pass all
// read — and the load of net itself, in caller units. The edge rates and
// the load must be folded from the normalized rates to stay bit-identical,
// so a rescaled network has its routes folded again.
func analyzable(net *topo.Network) (norm *topo.Network, scale float64, rt topo.Routes, load topo.Load, err error) {
	rt, err = net.ValidateRoutes()
	if err != nil {
		return nil, 0, topo.Routes{}, topo.Load{}, fmt.Errorf("analysis: %w", err)
	}
	load = rt.Load
	norm, scale = normalizeNetwork(net)
	if scale != 1 {
		rt = rt.Rescale(norm)
	}
	return norm, scale, rt, load, nil
}

// normalizeNetwork rescales all bit-valued quantities (capacities, bucket
// parameters, access and reserved rates) by the largest server capacity,
// returning the rescaled network and the scale factor. Delay bounds are
// invariant under this rescaling — a delay is bits divided by
// bits-per-second, and both scale together — but the piecewise-linear
// curve arithmetic becomes well-conditioned: raw bits-per-second
// magnitudes (1e8 and up) would otherwise amplify floating-point noise in
// breakpoint coordinates past the comparison tolerances. Bit-valued
// results (backlog bounds) must be multiplied back by the returned scale;
// see denormalizeBacklogs. The input network is not modified.
func normalizeNetwork(net *topo.Network) (*topo.Network, float64) {
	scale := 0.0
	for _, s := range net.Servers {
		if s.Capacity > scale {
			scale = s.Capacity
		}
	}
	if scale == 0 || (scale >= 0.5 && scale <= 2) {
		return net, 1
	}
	out := &topo.Network{
		Servers:     make([]server.Server, len(net.Servers)),
		Connections: make([]topo.Connection, len(net.Connections)),
	}
	copy(out.Servers, net.Servers)
	copy(out.Connections, net.Connections)
	for i := range out.Servers {
		out.Servers[i].Capacity /= scale
	}
	for i := range out.Connections {
		normalizeConnection(&out.Connections[i], scale)
	}
	return out, scale
}

// normalizeConnection rescales one connection's bit-valued parameters by
// scale: normalizeNetwork's rule for every connection, and ExtendContext's
// for a candidate, so incremental and full analyses see bit-identical
// inputs.
func normalizeConnection(c *topo.Connection, scale float64) {
	c.Bucket.Sigma /= scale
	c.Bucket.Rho /= scale
	c.AccessRate /= scale
	c.Rate /= scale
	if c.Envelope != nil {
		scaled := minplus.ScaleY(*c.Envelope, 1/scale)
		c.Envelope = &scaled
	}
}

// denormalizeBacklogs converts a result's backlog bounds back to the
// caller's bit units after an analysis on a normalized network.
func denormalizeBacklogs(r *Result, scale float64) *Result {
	if scale != 1 {
		for i := range r.Backlogs {
			r.Backlogs[i] *= scale
		}
	}
	return r
}

// fanOut calls f(ar, i) for every i in [0, n) and returns the error of the
// smallest i that failed, nil when none did: the one worker pool of the
// package, behind a level's dirty units (Baseline.run) and a scan's theta
// candidates (thetaSearch). With two or more items and more than one core
// the calls run concurrently on up to GOMAXPROCS workers, the calling
// goroutine one of them, taking indices off one counter, so f must write
// only what index i owns. Each worker draws one arena from the pool, resets
// it before every call and releases it when done, so f must not retain
// arena-backed curves past its return. A worker stops at its first failure
// and once ctx is done, leaving later indices uncalled: callers consult
// ctx.Err() before reading anything.
func fanOut(ctx context.Context, n int, f func(ar *minplus.Arena, i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		ar := minplus.GetArena()
		defer ar.Release()
		for i := 0; i < n && !canceled(ctx); i++ {
			ar.Reset()
			if err := f(ar, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		ar := minplus.GetArena()
		defer ar.Release()
		for i := int(next.Add(1)) - 1; i < n && !canceled(ctx); i = int(next.Add(1)) - 1 {
			ar.Reset()
			if errs[i] = f(ar, i); errs[i] != nil {
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
