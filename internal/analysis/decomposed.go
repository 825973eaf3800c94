package analysis

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
// backlog bound and advances every crossing connection by its local delay:
// decomposedCore's unit computation. ok=false means a local delay was
// unbounded and the whole analysis degrades to +Inf. conns must be the
// server's crossing connections (ConnectionIndex order); every curve is
// drawn from the arena and consumed before the caller resets it.
//
// EDF keeps its lateness rule (edf.go). Every other discipline is one
// per-class loop: a class is FIFO within itself, so its members share the
// delay h(class aggregate, offered) + latency. The discipline decides only
// how the connections group into classes and what each class is offered:
//
//   - FIFO: one class, offered the line rate;
//   - static priority: one class per priority, most urgent first, each
//     offered the leftover residual(Rate(C), more urgent classes, 0) — exact
//     for a preemptive fluid server (Cruz; the authors' RTSS'97 basis of the
//     paper's announced static-priority extension);
//   - guaranteed rate: one class per connection, offered its rate-latency
//     curve beta_{R,T} (the latency is inside the curve, not added).
func decomposedServerStep(net *topo.Network, s int, conns []int, p *propagation, ar *minplus.Arena) (ok bool, err error) {
	srv := net.Servers[s]
	if len(conns) == 0 {
		return true, nil
	}
	agg := p.envSum(ar, conns)
	p.recordBacklog(s, agg, srv.Capacity)
	// The classes are the runs of ord whose members sameClass groups.
	ord := conns
	switch srv.Discipline {
	case server.FIFO:
	case server.StaticPriority:
		ord = slices.Clone(conns)
		slices.SortStableFunc(ord, func(a, b int) int {
			return cmp.Compare(net.Connections[a].Priority, net.Connections[b].Priority)
		})
	case server.GuaranteedRate:
		if err := checkReservations(net, s, conns); err != nil {
			return false, err
		}
	case server.EDF:
		return edfServerStep(net, s, conns, p, ar)
	default:
		return false, fmt.Errorf("analysis: unsupported discipline %v at server %d", srv.Discipline, s)
	}
	higher := minplus.Zero() // static priority: the classes already served
	for lo := 0; lo < len(ord); {
		hi := lo + 1
		for hi < len(ord) && sameClass(net, srv.Discipline, ord[lo], ord[hi]) {
			hi++
		}
		members, classAgg := ord[lo:hi], agg
		lo = hi
		if len(members) < len(ord) {
			classAgg = p.envSum(ar, members)
		}
		beta, lat := minplus.Rate(srv.Capacity), srv.Latency
		switch srv.Discipline {
		case server.StaticPriority:
			beta = residual(ar, beta, higher, 0)
			higher = ar.SumN(higher, classAgg)
		case server.GuaranteedRate:
			beta, lat = minplus.RateLatency(net.Connections[members[0]].Rate, srv.Latency), 0
		}
		d := minplus.HorizontalDeviation(classAgg, beta) + lat
		for _, c := range members {
			if !p.advance(c, []int{s}, d, 1) {
				return false, nil
			}
		}
	}
	return true, nil
}

// envSum is the sum of conns' current envelopes, built in the arena.
func (p *propagation) envSum(ar *minplus.Arena, conns []int) minplus.Curve {
	envs := ar.Curves(len(conns))
	for _, c := range conns {
		envs = append(envs, p.env[c])
	}
	return ar.SumNSlice(envs)
}

// sameClass reports whether connections a and b share a class at a server
// of discipline d.
func sameClass(net *topo.Network, d server.Discipline, a, b int) bool {
	switch d {
	case server.StaticPriority:
		return net.Connections[a].Priority == net.Connections[b].Priority
	case server.GuaranteedRate:
		return a == b
	}
	return true
}

// checkReservations is the admission test a guaranteed-rate scheduler
// performs at server s over its crossing connections: each has a reserved
// rate, and together they fit the server's capacity.
func checkReservations(net *topo.Network, s int, conns []int) error {
	total := 0.0
	for _, c := range conns {
		if net.Connections[c].Rate <= 0 {
			return fmt.Errorf("analysis: connection %d has no reserved rate at guaranteed-rate server %d", c, s)
		}
		total += net.Connections[c].Rate
	}
	if capacity := net.Servers[s].Capacity; total > capacity+1e-9 {
		return fmt.Errorf("analysis: guaranteed-rate server %d oversubscribed: reserved %g > capacity %g", s, total, capacity)
	}
	return nil
}
