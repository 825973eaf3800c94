package analysis

import (
	"context"
	"fmt"

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
// to the service-curve method as the available machinery allows.
type ServiceCurve struct{}

// Name implements Analyzer.
func (ServiceCurve) Name() string { return "ServiceCurve" }

// Analyze implements Analyzer.
func (ServiceCurve) Analyze(net *topo.Network) (*Result, error) {
	net, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	for i, s := range net.Servers {
		if s.Discipline != server.FIFO {
			return nil, fmt.Errorf("analysis: ServiceCurve applies to FIFO networks; server %d is %v", i, s.Discipline)
		}
	}
	pass, perHopEnv, finite, err := decomposedPass(context.Background(), net, g.Order())
	if err != nil {
		return nil, err
	}
	if !finite {
		return allInf("ServiceCurve", net), nil
	}
	res := &Result{Algorithm: "ServiceCurve"}
	res.Bounds = make([]float64, len(net.Connections))
	res.Stages = make([][]Stage, len(net.Connections))
	// Buffer bounds are discipline-independent for work-conserving
	// servers; reuse the ones the propagation pass computed.
	res.Backlogs = pass.backlog
	for i, conn := range net.Connections {
		betaNet, err := networkServiceCurve(net, perHopEnv, i)
		if err != nil {
			return nil, err
		}
		d := minplus.HorizontalDeviation(conn.SourceEnvelope(), betaNet)
		res.Bounds[i] = d
		res.Stages[i] = []Stage{{Servers: append([]int(nil), conn.Path...), Delay: d}}
	}
	return denormalizeBacklogs(res, scale), nil
}

// networkServiceCurve convolves the leftover service curves offered to
// connection i along its path.
func networkServiceCurve(net *topo.Network, perHopEnv [][]minplus.Curve, i int) (minplus.Curve, error) {
	conn := net.Connections[i]
	var betaNet minplus.Curve
	for hop, s := range conn.Path {
		beta := leftoverServiceCurve(net, perHopEnv, s, i)
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
func leftoverServiceCurve(net *topo.Network, perHopEnv [][]minplus.Curve, s, i int) minplus.Curve {
	srv := net.Servers[s]
	cross := minplus.Zero()
	for _, o := range net.ConnectionsAt(s) {
		if o == i {
			continue
		}
		h := net.HopIndex(o, s)
		cross = minplus.Add(cross, perHopEnv[o][h])
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
