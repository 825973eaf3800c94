package analysis

import (
	"fmt"
	"math"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

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

// edfServerStep is decomposedServerStep at an EDF server. Fluid EDF serves
// work in deadline order, so within a busy period starting at 0, all work
// with deadline at most tau has arrived by the curves shifted by each
// flow's local deadline:
//
//	W(tau) = sum_j alpha_j(tau - D_j).
//
// Every bit with deadline tau completes by W(tau)/C, hence by tau + L with
// the uniform lateness bound
//
//	L = sup_tau { (W(tau) - C*tau)/C }  (clamped at 0),
//
// and each flow's local delay is bounded by D_j + L (plus the server's
// latency): the classical EDF schedulability analysis (L == 0 means every
// local deadline is met). W is built in the arena.
func edfServerStep(net *topo.Network, s int, conns []int, p *propagation, ar *minplus.Arena) (bool, error) {
	srv := net.Servers[s]
	shifted := ar.Curves(len(conns))
	for _, c := range conns {
		d, err := localDeadline(net, c)
		if err != nil {
			return false, err
		}
		// alpha_j(tau - D_j) is zero for tau <= D_j: propagated envelopes
		// can have a positive value at 0, which a plain Delay would
		// extend leftwards.
		shifted = append(shifted, ar.ZeroUntil(ar.Delay(p.env[c], d), d))
	}
	lateness := minplus.SupDiff(ar.SumNSlice(shifted), minplus.Rate(srv.Capacity)) / srv.Capacity
	if lateness < 0 {
		lateness = 0
	}
	if math.IsInf(lateness, 1) {
		return false, fmt.Errorf("analysis: EDF server %d is unstable", s)
	}
	for _, c := range conns {
		d, _ := localDeadline(net, c) // its error returned above
		if !p.advance(c, []int{s}, d+lateness+srv.Latency, 1) {
			return false, nil
		}
	}
	return true, nil
}
