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
	// Buffer bounds are discipline-independent for work-conserving
	// servers; reuse the ones the propagation computed.
	return networkCurveBounds(b.norm, "ServiceCurve", b.res.Backlogs, b.scale, b.leftover)
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
func (GuaranteedRateNetworkCurve) Analyze(net *topo.Network) (*Result, error) {
	net, scale, g, err := analyzable(net)
	if err != nil {
		return nil, err
	}
	dec := fresh(decomposedCore{}, net, scale, g, false)
	for s, conns := range dec.idx {
		if err := checkReservations(net, s, conns); err != nil {
			return nil, err
		}
	}
	// Buffer bounds come from one decomposed run, which is also valid for
	// guaranteed-rate servers; an unstable or failed run leaves them unset.
	// They stay normalized until the one denormalization below.
	var backlogs []float64
	if _, derr := dec.run(context.Background(), nil, nil, -1); derr == nil {
		backlogs = dec.res.Backlogs
	}
	return networkCurveBounds(net, "GuaranteedRate/NetworkServiceCurve", backlogs, scale, func(i, s int) minplus.Curve {
		return minplus.RateLatency(net.Connections[i].Rate, net.Servers[s].Latency)
	})
}

// networkCurveBounds is the per-connection loop both service-curve analyses
// share: convolve the curves hop(i, s) offers connection i at each server s
// of its route into its network service curve, deviate the source envelope
// from it, and record one stage for the whole route. backlogs are in the
// normalized units of net, the view analyzable made at scale.
func networkCurveBounds(net *topo.Network, algo string, backlogs []float64, scale float64, hop func(i, s int) minplus.Curve) (*Result, error) {
	res := &Result{Algorithm: algo, Backlogs: backlogs}
	res.Bounds = make([]float64, len(net.Connections))
	res.Stages = make([][]Stage, len(net.Connections))
	for i, conn := range net.Connections {
		var betaNet minplus.Curve
		for h, s := range conn.Path {
			if beta := hop(i, s); h == 0 {
				betaNet = beta
			} else {
				betaNet = minplus.Convolve(betaNet, beta)
			}
		}
		if betaNet.FinalSlope() <= 0 {
			return nil, fmt.Errorf("analysis: connection %d starved on its path (leftover service rate %g)", i, betaNet.FinalSlope())
		}
		d := minplus.HorizontalDeviation(conn.SourceEnvelope(), betaNet)
		res.Bounds[i] = d
		res.Stages[i] = []Stage{{Servers: append([]int(nil), conn.Path...), Delay: d}}
	}
	return denormalizeBacklogs(res, scale), nil
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
