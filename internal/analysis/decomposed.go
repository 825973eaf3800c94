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

// AnalyzeContext implements Analyzer: the driver checks the context
// before every server and returns its error once it is done; an
// uncancelled run is bit-identical to Analyze.
func (Decomposed) AnalyzeContext(ctx context.Context, net *topo.Network) (*Result, error) {
	return analyzeOnce(ctx, decomposedCore, net)
}

// decomposedCore is the decomposition on the one driver: one unit per
// server, in topological order, on networks of any discipline.
var decomposedCore = core{name: "Decomposed", maxLen: 1, step: decomposedServerStep}

// decomposedServerStep analyzes the unit's single server: it records the
// server's backlog bound and advances every crossing connection by its
// local delay. It is the step of every core with one-server units. ok=false
// means a local delay was unbounded and the whole analysis degrades to
// +Inf. One server is the unit of cancellation granularity: the driver
// checks the context before every unit. Every curve is drawn from the arena
// and consumed before the driver resets it.
//
// Every discipline is one per-class loop: a class is FIFO within itself, so
// its members share the delay h(class aggregate, offered) + latency. The
// discipline decides only how the connections group into classes, what each
// class's aggregate is and what it is offered:
//
//   - FIFO: one class, offered the line rate;
//   - static priority: one class per priority, most urgent first, each
//     offered the leftover residual(Rate(C), more urgent classes, 0) — exact
//     for a preemptive fluid server (Cruz; the authors' RTSS'97 basis of the
//     paper's announced static-priority extension);
//   - guaranteed rate: one class per connection, offered its rate-latency
//     curve beta_{R,T} (the latency is inside the curve, not added);
//   - EDF: one class whose aggregate is shifted by deadlines,
//     W(tau) = sum_j alpha_j(tau - D_j) with D_j the local deadline
//     (localDeadline), offered the line rate. Fluid EDF serves work in
//     deadline order, so within a busy period starting at 0 all work with
//     deadline at most tau has arrived by W(tau) and completes by W(tau)/C:
//     every bit is late by at most h(W, C*t) = max(0, sup_tau (W(tau) -
//     C*tau)/C), the classical uniform lateness (zero exactly when the EDF
//     schedulability test holds), and each member adds its own D_j to it.
func decomposedServerStep(_ context.Context, net *topo.Network, idx [][]int, unit []int, p *propagation, ar *minplus.Arena) (ok bool, err error) {
	s := unit[0]
	srv, conns := net.Servers[s], idx[s]
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
		case server.EDF:
			if classAgg, err = deadlineSum(net, members, p, ar); err != nil {
				return false, err
			}
		}
		h := minplus.HorizontalDeviation(classAgg, beta)
		for _, c := range members {
			local := 0.0 // EDF: the connection's local deadline
			if srv.Discipline == server.EDF {
				local, _ = localDeadline(net, c) // its error returned by deadlineSum
			}
			if !p.advance(c, unit, local+h+lat, 1, ar) {
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

// deadlineSum is EDF's class aggregate sum_j alpha_j(tau - D_j) over conns,
// built in the arena. Each shifted term is zero for tau <= D_j: propagated
// envelopes can have a positive value at 0, which a plain Delay would
// extend leftwards.
func deadlineSum(net *topo.Network, conns []int, p *propagation, ar *minplus.Arena) (minplus.Curve, error) {
	shifted := ar.Curves(len(conns))
	for _, c := range conns {
		d, err := localDeadline(net, c)
		if err != nil {
			return minplus.Curve{}, err
		}
		shifted = append(shifted, ar.ZeroUntil(ar.Delay(p.env[c], d), d))
	}
	return ar.SumNSlice(shifted), nil
}

// localDeadline returns connection c's per-hop relative deadline: its
// end-to-end deadline split evenly over its hops. EDF servers require a
// positive end-to-end deadline.
func localDeadline(net *topo.Network, c int) (float64, error) {
	conn := net.Connections[c]
	if conn.Deadline <= 0 {
		return 0, fmt.Errorf("analysis: connection %d needs a positive deadline for EDF scheduling", c)
	}
	return conn.Deadline / float64(len(conn.Path)), nil
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
