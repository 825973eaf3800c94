package analysis

import (
	"context"
	"fmt"
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

// serviceCurveCore is the decomposed propagation ServiceCurve reads its
// cross traffic from, on FIFO networks only.
type serviceCurveCore struct{ decomposedCore }

func (serviceCurveCore) name() string { return "ServiceCurve" }

func (serviceCurveCore) check(net *topo.Network) error {
	return requireDiscipline(net, "ServiceCurve", "FIFO", server.FIFO)
}

// Analyze implements Analyzer.
func (ServiceCurve) Analyze(net *topo.Network) (*Result, error) {
	b, err := analyze(context.Background(), serviceCurveCore{}, net, true)
	if err != nil {
		return nil, err
	}
	if b.unstable {
		return b.res, nil
	}
	net = b.norm
	res := &Result{Algorithm: "ServiceCurve"}
	res.Bounds = make([]float64, len(net.Connections))
	res.Stages = make([][]Stage, len(net.Connections))
	// Buffer bounds are discipline-independent for work-conserving
	// servers; reuse the ones the propagation computed.
	res.Backlogs = b.res.Backlogs
	for i, conn := range net.Connections {
		betaNet, err := networkServiceCurve(b, i)
		if err != nil {
			return nil, err
		}
		d := minplus.HorizontalDeviation(conn.SourceEnvelope(), betaNet)
		res.Bounds[i] = d
		res.Stages[i] = []Stage{{Servers: append([]int(nil), conn.Path...), Delay: d}}
	}
	return denormalizeBacklogs(res, b.scale), nil
}

// entryEnv is connection c's envelope entering server s of its route, read
// off a traced Decomposed run: its source envelope at its first hop, else
// what the unit of the hop before recorded for it. Traced envelopes are
// never recycled, so every hop keeps its own.
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

// networkServiceCurve convolves the leftover service curves offered to
// connection i along its path, over the traced Decomposed run b.
func networkServiceCurve(b *Baseline, i int) (minplus.Curve, error) {
	conn := b.norm.Connections[i]
	var betaNet minplus.Curve
	for hop, s := range conn.Path {
		beta := leftoverServiceCurve(b, s, i)
		if hop == 0 {
			betaNet = beta
		} else {
			betaNet = minplus.Convolve(betaNet, beta)
		}
	}
	if betaNet.FinalSlope() <= 0 {
		return minplus.Curve{}, fmt.Errorf("analysis: connection %d starved on its path (leftover service rate %g)", i, betaNet.FinalSlope())
	}
	return betaNet, nil
}

// leftoverServiceCurve computes [C*t - G_cross(t)]^+ for connection i at
// server s, delayed by the server's fixed latency. The cross envelopes are
// the decomposition-propagated ones at their respective hops. If the raw
// leftover dips (possible for non-concave cross envelopes) it is replaced
// by its monotone closure, which is a smaller and therefore still valid
// service curve.
func leftoverServiceCurve(b *Baseline, s, i int) minplus.Curve {
	srv := b.norm.Servers[s]
	cross := minplus.Zero()
	for _, o := range b.idx[s] {
		if o != i {
			cross = minplus.Add(cross, b.entryEnv(o, s))
		}
	}
	raw := minplus.PositivePart(minplus.Sub(minplus.Rate(srv.Capacity), cross))
	if !raw.IsNonDecreasing() {
		raw = minplus.MonotoneClosure(raw)
	}
	if srv.Latency > 0 {
		raw = minplus.Delay(raw, srv.Latency)
	}
	return raw
}
