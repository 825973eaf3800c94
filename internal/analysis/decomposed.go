package analysis

import (
	"context"
	"fmt"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// Decomposed implements the classical decomposition-based end-to-end
// analysis of Cruz ("A calculus for network delay", parts I and II), the
// paper's Algorithm Decomposed: servers are analyzed one at a time in
// topological order; at each FIFO server the local worst-case delay is the
// horizontal deviation between the aggregate input envelope and the
// service line; every transiting connection's envelope is then deformed by
// that local delay (b'(I) = b(I + d)), and a connection's end-to-end bound
// is the sum of the local delays along its route.
//
// The method is simple and fully general for feedforward networks, but it
// charges every connection the worst-case delay at every hop, which the
// integrated analysis avoids. It runs on the one driver (Baseline.run) with
// one unit per server, so servers of one dependency level run concurrently.
type Decomposed struct{}

// Name implements Analyzer.
func (Decomposed) Name() string { return "Decomposed" }

// Analyze implements Analyzer.
func (d Decomposed) Analyze(net *topo.Network) (*Result, error) {
	return d.AnalyzeContext(context.Background(), net)
}

// AnalyzeContext implements ContextAnalyzer: the driver checks the context
// before every server and returns its error once it is done; an
// uncancelled run is bit-identical to Analyze.
func (Decomposed) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, decomposedCore{}, net)
}

// decomposedServerStep analyzes a single server: it records the server's
// backlog bound and advances every crossing connection by the local delay
// of the server's discipline: decomposedCore's unit computation. ok=false
// means a local delay was unbounded and the whole analysis degrades to
// +Inf. conns must be the server's crossing connections (ConnectionIndex
// order); the aggregate envelope is computed once, in the arena, and
// consumed before the caller resets it.
func decomposedServerStep(net *topo.Network, s int, conns []int, p *propagation, ar *minplus.Arena) (ok bool, err error) {
	srv := net.Servers[s]
	if len(conns) == 0 {
		return true, nil
	}
	envs := ar.Curves(len(conns))
	for _, c := range conns {
		envs = append(envs, p.env[c])
	}
	agg := ar.SumNSlice(envs)
	p.recordBacklog(s, agg, srv.Capacity)
	switch srv.Discipline {
	case server.FIFO:
		d := fifoLocalDelay(agg, srv.Capacity, srv.Latency)
		for _, c := range conns {
			if !p.advance(c, []int{s}, d, 1) {
				return false, nil
			}
		}
	case server.StaticPriority:
		delays := spLocalDelays(net, s, conns, p)
		for i, c := range conns {
			if !p.advance(c, []int{s}, delays[i], 1) {
				return false, nil
			}
		}
	case server.GuaranteedRate:
		for _, c := range conns {
			beta, gerr := grServiceCurve(net, s, c)
			if gerr != nil {
				return false, gerr
			}
			dc := minplus.HorizontalDeviation(p.env[c], beta)
			if !p.advance(c, []int{s}, dc, 1) {
				return false, nil
			}
		}
	case server.EDF:
		delays, eerr := edfLocalDelays(net, s, conns, p)
		if eerr != nil {
			return false, eerr
		}
		for i, c := range conns {
			if !p.advance(c, []int{s}, delays[i], 1) {
				return false, nil
			}
		}
	default:
		return false, fmt.Errorf("analysis: unsupported discipline %v at server %d", srv.Discipline, s)
	}
	return true, nil
}
