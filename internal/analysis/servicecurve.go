package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// ServiceCurve implements the induced-service-curve analysis for FIFO
// networks, the paper's Algorithm Service Curve. Because a FIFO server has
// no per-connection guarantee, the only service curve that can be induced
// for a single connection without further information is the leftover
// (blind multiplexing) curve
//
//	beta_j(t) = [C_j*t - G_cross,j(t)]^+ ,
//
// where G_cross,j bounds the traffic of all other connections at server j;
// the paper derives an upper bound on the FIFO service curve of exactly
// this shape. The per-hop curves are min-plus convolved into the network
// service curve S_i = beta_1 (x) ... (x) beta_m (Equation 2 of the paper)
// and the delay bound is the horizontal deviation between the source
// envelope and S_i (Equation 1).
//
// Cross-traffic envelopes inside the network are characterized with the
// decomposition propagation — the tightest description available to the
// method — so the comparison against Algorithm Integrated is as favorable
// to the service-curve method as the available machinery allows. They are
// read off the unit traces of one traced Decomposed run.
type ServiceCurve struct{}

// Name implements Analyzer.
func (ServiceCurve) Name() string { return "ServiceCurve" }

// Analyze implements Analyzer.
func (a ServiceCurve) Analyze(net *topo.Network) (*Result, error) {
	return a.AnalyzeContext(context.Background(), net)
}

// AnalyzeContext implements Analyzer with the decomposed run's
// checkpoints, one per server.
func (ServiceCurve) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, serviceCurveCore, net)
}

// NewBaseline implements Analyzer: a trial replays the decomposed
// run's clean units, and its finish recomputes every network curve.
func (ServiceCurve) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(serviceCurveCore, net)
}

// serviceCurveCore is the decomposed run ServiceCurve reads its cross
// traffic from, on FIFO networks only; its buffer bounds stand, as they
// hold for any work-conserving server. The finish deviates each source
// envelope from its network curve, bounding by +Inf a connection whose
// curve cannot be represented (networkCurve).
var serviceCurveCore = core{name: "ServiceCurve", check: serves("ServiceCurve", "FIFO", server.FIFO),
	maxLen: 1, step: decomposedServerStep, traced: true,
	finish: func(ctx context.Context, b *Baseline) (*Result, error) {
		if b.unstable {
			return b.res, nil
		}
		return routeBounds(ctx, b, b.res.Backlogs, func(i int) (float64, error) {
			curve, ok := b.networkCurve(i)
			if !ok {
				return math.Inf(1), nil
			}
			if curve.FinalSlope() <= 0 {
				return 0, fmt.Errorf("analysis: connection %d starved on its path (leftover service rate %g)", i, curve.FinalSlope())
			}
			return minplus.HorizontalDeviation(b.src[i], curve), nil
		})
	}}

// routeBounds is the result of a network-curve finish: bound(i) for every
// connection i, charged as one stage over its whole route (Baseline.Stages
// builds it). Each connection is one cancellation checkpoint.
func routeBounds(ctx context.Context, b *Baseline, backlogs []float64, bound func(i int) (float64, error)) (*Result, error) {
	n := len(b.norm.Connections)
	res := &Result{Algorithm: b.core.name, Bounds: make([]float64, n), Backlogs: backlogs}
	for i := range b.norm.Connections {
		if canceled(ctx) {
			return nil, ctxErr(ctx.Err())
		}
		d, err := bound(i)
		if err != nil {
			return nil, err
		}
		res.Bounds[i] = d
	}
	return res, nil
}

// networkCurve is connection i's network service curve over the traced
// run b, S_i = beta_1 (x) ... (x) beta_m of its per-hop leftovers. ok is
// false when a curve of the fold dips below floating-point tolerance: deep
// tandems at high load push the leftovers' breakpoints out to ~1e9 time
// units, where a coordinate's tolerance is a whole unit and Convolve can
// hand back a decreasing curve, which no later operation accepts.
func (b *Baseline) networkCurve(i int) (curve minplus.Curve, ok bool) {
	path := b.norm.Connections[i].Path
	curve = b.leftover(i, path[0])
	for _, s := range path[1:] {
		beta := b.leftover(i, s)
		if !curve.IsNonDecreasing() || !beta.IsNonDecreasing() {
			return minplus.Curve{}, false
		}
		curve = minplus.Convolve(curve, beta)
	}
	return curve, curve.IsNonDecreasing()
}

// GuaranteedRateNetworkCurve implements the service-curve analysis in the
// setting where it is known to work well (the paper's Section 1.2):
// every server on the path offers the connection a rate-latency curve
// beta_{R,T} — R the connection's reserved rate, T the server's scheduling
// latency — and the end-to-end ("network") service curve is their min-plus
// convolution, so the burst penalty is paid only once. Analyze returns the
// delay bounds obtained from the horizontal deviation between each
// connection's source envelope and its network service curve. It fails
// when a connection has no reservation or a server is oversubscribed,
// mirroring the admission test a real fair-queueing scheduler performs.
type GuaranteedRateNetworkCurve struct{}

// Name implements Analyzer.
func (GuaranteedRateNetworkCurve) Name() string { return "GuaranteedRate/NetworkServiceCurve" }

// Analyze implements Analyzer.
func (a GuaranteedRateNetworkCurve) Analyze(net *topo.Network) (*Result, error) {
	return a.AnalyzeContext(context.Background(), net)
}

// AnalyzeContext implements Analyzer with the decomposed run's
// checkpoints, one per server.
func (GuaranteedRateNetworkCurve) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, grCore, net)
}

// NewBaseline implements Analyzer.
func (GuaranteedRateNetworkCurve) NewBaseline(net *topo.Network) (*Baseline, error) {
	return newBaseline(grCore, net)
}

// grCore checks every server's reservations and runs the decomposition,
// valid for guaranteed-rate servers, for the buffer bounds (none when the
// network is unstable or a bound unbounded). Every hop offers connection i
// the same rate R_i, so the finish's network curve is the closed form
// beta_{R_i, sum_s T_s} of their convolution (docs/THEORY.md), which
// depends on the connection alone.
var grCore = core{name: "GuaranteedRate/NetworkServiceCurve",
	check:  func(net *topo.Network, idx [][]int, s int) error { return checkReservations(net, s, idx[s]) },
	maxLen: 1, step: decomposedServerStep,
	finish: func(ctx context.Context, b *Baseline) (*Result, error) {
		var backlogs []float64
		if !b.unstable {
			backlogs = b.res.Backlogs
		}
		return routeBounds(ctx, b, backlogs, func(i int) (float64, error) {
			conn, latency := b.norm.Connections[i], 0.0
			for _, s := range conn.Path {
				latency += b.norm.Servers[s].Latency
			}
			return minplus.HorizontalDeviation(conn.SourceEnvelope(), minplus.RateLatency(conn.Rate, latency)), nil
		})
	}}

// entryEnv is connection c's envelope entering server s of its route, read
// off a traced Decomposed run: its source envelope at its first hop, else
// what the unit of the hop before recorded for it. Every recorded unit
// keeps its own copies of the envelopes it left (recordUnit, one per
// distinct envelope), so every hop keeps its own.
func (b *Baseline) entryEnv(c, s int) minplus.Curve {
	path := b.norm.Connections[c].Path
	h := slices.Index(path, s)
	if h == 0 {
		return b.src[c]
	}
	post := b.trace[path[h-1]].post
	k, _ := slices.BinarySearchFunc(post, c, func(ct connTrace, c int) int { return ct.conn - c })
	return post[k].env
}

// leftover is ServiceCurve's curve for connection i at server s, over the
// traced Decomposed run b: the residual at theta = 0 of the line rate
// against the entry envelopes of every other connection there — the blind
// leftover [C*t - G_cross(t)]^+, replaced by its monotone closure if it
// dips — delayed by the server's fixed latency.
func (b *Baseline) leftover(i, s int) minplus.Curve {
	srv := b.norm.Servers[s]
	cross := minplus.Zero()
	for _, o := range b.idx[s] {
		if o != i {
			cross = minplus.Add(cross, b.entryEnv(o, s))
		}
	}
	return minplus.Delay(residual(nil, minplus.Rate(srv.Capacity), cross, 0), srv.Latency)
}
