package analysis

import (
	"context"
	"math"
	"slices"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// IntegratedSP extends Algorithm Integrated to static-priority networks —
// the extension the paper's conclusion announces as ongoing work.
//
// The construction layers the two leftover results this library already
// validates separately:
//
//  1. At an SP server, priority class p receives the leftover service
//     curve L(t) = [C*t - G_higher(t)]^+ (exact for preemptive-priority
//     fluid; Decomposed's per-class loop serves it), of which a
//     rate-latency minorant beta_{R,T} with R = C - rate_higher and T the
//     last zero of L is a valid (slightly weaker) service curve.
//
//  2. Within its class the server is FIFO, so the theta-parameterized
//     FIFO residual family (residual.go) applies against same-class cross
//     traffic on top of the rate-latency guarantee:
//
//     beta_theta(t) = [ beta_{R,T}(t) - F_cross(t - theta) ]^+ . 1{t > theta},
//
//     the form used throughout FIFO network calculus for rate-latency
//     nodes; every theta >= 0 yields a sound bound.
//
// So static priority is not a second chain analysis but a per-class view of
// the one Integrated runs: the same partition into pairs, the same driver
// (level-parallel, incremental through NewBaseline), and per chain one
// analyzeChain pass per class, from the most urgent down, each against the
// leftover of the classes already propagated.
type IntegratedSP struct{}

// Name implements Analyzer.
func (IntegratedSP) Name() string { return "IntegratedSP" }

// Analyze implements Analyzer.
func (a IntegratedSP) Analyze(net *topo.Network) (*Result, error) {
	return a.AnalyzeContext(context.Background(), net)
}

// AnalyzeContext implements ContextAnalyzer, with Integrated's cancellation
// checkpoints plus one between classes. An uncancelled run is bit-identical
// to Analyze.
func (IntegratedSP) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, integratedSPCore, net)
}

// integratedSPCore is the chain analysis of static-priority networks, on
// the pairs of the paper.
var integratedSPCore = core{name: "IntegratedSP", check: serves("IntegratedSP", "static-priority", server.StaticPriority),
	maxLen: 2, step: analyzeSPChain}

// analyzeSPChain is IntegratedSP's step, one chain of static-priority
// servers: one analyzeChain pass per class present, in priority order, each
// served the rate-latency leftover after all more-urgent classes. Like
// Integrated's, it reports false when a bound is unbounded or the context
// was cancelled.
func analyzeSPChain(ctx context.Context, net *topo.Network, idx [][]int, chain []int, p *propagation, ar *minplus.Arena) (bool, error) {
	sc := getChainScratch(ar)
	defer sc.release()
	classes := sc.classes[:0]
	for _, s := range chain {
		for _, c := range idx[s] {
			classes = append(classes, net.Connections[c].Priority)
		}
	}
	slices.Sort(classes)
	classes = slices.Compact(classes)
	sc.classes = classes

	// higher[i] accumulates, per chain position, the envelopes of all
	// classes more urgent than the one currently analyzed (at their
	// position-local deformation).
	higher := sc.ar.Curves(len(chain))[:len(chain)]
	for i := range higher {
		higher[i] = minplus.Zero()
	}
	svc := sc.service(len(chain))
	for _, class := range classes {
		if canceled(ctx) {
			return false, nil
		}
		for i, s := range chain {
			srv := net.Servers[s]
			beta, ok := spRateLatencyGuarantee(srv.Capacity, higher[i], srv.Latency)
			if !ok {
				return false, nil
			}
			svc[i] = hopService{beta: beta}
		}
		if !analyzeChain(ctx, sc, net, idx, chain, p, chainPass{svc: svc, byClass: true, class: class}) {
			return false, nil
		}
		for i := range chain {
			higher[i] = sc.ar.SumN(higher[i], sc.agg[i])
		}
	}
	// Whole-server backlog bounds: after the last class, higher is the
	// total aggregate.
	for i, s := range chain {
		p.recordBacklog(s, higher[i], net.Servers[s].Capacity)
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
