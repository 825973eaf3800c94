package analysis

import (
	"context"
	"fmt"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// grServiceCurve returns the rate-latency service curve a GuaranteedRate
// server offers to connection c: beta_{R,T} with R the connection's
// reserved rate and T the server's scheduling latency. It fails when the
// connection has no reservation or the server is oversubscribed, mirroring
// the admission test a real fair-queueing scheduler performs.
func grServiceCurve(net *topo.Network, s, c int) (minplus.Curve, error) {
	srv := net.Servers[s]
	conn := net.Connections[c]
	if conn.Rate <= 0 {
		return minplus.Curve{}, fmt.Errorf("analysis: connection %d has no reserved rate at guaranteed-rate server %d", c, s)
	}
	total := 0.0
	for _, o := range net.ConnectionsAt(s) {
		total += net.Connections[o].Rate
	}
	if total > srv.Capacity+1e-9 {
		return minplus.Curve{}, fmt.Errorf("analysis: guaranteed-rate server %d oversubscribed: reserved %g > capacity %g", s, total, srv.Capacity)
	}
	return minplus.RateLatency(conn.Rate, srv.Latency), nil
}

// GuaranteedRateNetworkCurve implements the service-curve analysis in the
// setting where it is known to work well (the paper's Section 1.2):
// every server on the path offers the connection a rate-latency curve, and
// the end-to-end ("network") service curve is their min-plus convolution,
// so the burst penalty is paid only once. Analyze returns the delay bounds
// obtained from the horizontal deviation between each connection's source
// envelope and its network service curve.
type GuaranteedRateNetworkCurve struct{}

// Name implements Analyzer.
func (GuaranteedRateNetworkCurve) Name() string { return "GuaranteedRate/NetworkServiceCurve" }

// Analyze implements Analyzer.
func (GuaranteedRateNetworkCurve) Analyze(net *topo.Network) (*Result, error) {
	net, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: "GuaranteedRate/NetworkServiceCurve"}
	res.Bounds = make([]float64, len(net.Connections))
	res.Stages = make([][]Stage, len(net.Connections))
	// Buffer bounds come from one decomposed run, which is also valid for
	// guaranteed-rate servers; an unstable or failed run leaves them unset.
	// They stay normalized until the one denormalization below.
	dec := fresh(decomposedCore{}, net, scale, g, false)
	if _, derr := dec.run(context.Background(), nil, nil, -1); derr == nil {
		res.Backlogs = dec.res.Backlogs
	}
	for i, conn := range net.Connections {
		betaNet := minplus.Curve{}
		for hop, s := range conn.Path {
			beta, err := grServiceCurve(net, s, i)
			if err != nil {
				return nil, err
			}
			if hop == 0 {
				betaNet = beta
			} else {
				betaNet = minplus.Convolve(betaNet, beta)
			}
		}
		d := minplus.HorizontalDeviation(conn.SourceEnvelope(), betaNet)
		res.Bounds[i] = d
		res.Stages[i] = []Stage{{Servers: append([]int(nil), conn.Path...), Delay: d}}
	}
	return denormalizeBacklogs(res, scale), nil
}
