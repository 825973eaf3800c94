package analysis

import (
	"fmt"
	"math"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// LocalDeadline returns connection c's per-hop relative deadline: its
// end-to-end deadline split evenly over its hops. EDF servers require a
// positive end-to-end deadline.
func LocalDeadline(net *topo.Network, c int) (float64, error) {
	conn := net.Connections[c]
	if conn.Deadline <= 0 {
		return 0, fmt.Errorf("analysis: connection %d needs a positive deadline for EDF scheduling", c)
	}
	return conn.Deadline / float64(len(conn.Path)), nil
}

// edfLocalDelays computes per-connection local delay bounds at an EDF
// server. Fluid EDF serves work in deadline order, so within a busy period
// starting at 0, all work with deadline at most tau has arrived by the
// curves shifted by each flow's local deadline:
//
//	W(tau) = sum_j alpha_j(tau - D_j).
//
// Every bit with deadline tau completes by W(tau)/C, hence by tau + L with
// the uniform lateness bound
//
//	L = sup_tau { (W(tau) - C*tau)/C }  (clamped at 0),
//
// and each flow's local delay is bounded by D_j + L: the classical EDF
// schedulability analysis (L == 0 means every local deadline is met). The
// returned slice is indexed like conns.
func edfLocalDelays(net *topo.Network, s int, conns []int, p *propagation) ([]float64, error) {
	srv := net.Servers[s]
	shifted := make([]minplus.Curve, 0, len(conns))
	deadlines := make([]float64, len(conns))
	for i, c := range conns {
		d, err := LocalDeadline(net, c)
		if err != nil {
			return nil, err
		}
		deadlines[i] = d
		// alpha_j(tau - D_j) is zero for tau <= D_j: propagated envelopes
		// can have a positive value at 0, which a plain Delay would
		// extend leftwards.
		shifted = append(shifted, minplus.ZeroUntil(minplus.Delay(p.env[c], d), d))
	}
	w := minplus.Sum(shifted...)
	lateness := minplus.SupDiff(w, minplus.Rate(srv.Capacity)) / srv.Capacity
	if lateness < 0 {
		lateness = 0
	}
	if math.IsInf(lateness, 1) {
		return nil, fmt.Errorf("analysis: EDF server %d is unstable", s)
	}
	out := make([]float64, len(conns))
	for i := range conns {
		out[i] = deadlines[i] + lateness + srv.Latency
	}
	return out, nil
}

// EDFSchedulable reports whether every local deadline at server s is met
// (zero lateness) for the current source envelopes: the classical EDF
// admission test sum_j alpha_j(t - D_j) <= C*t.
func EDFSchedulable(net *topo.Network, s int) (bool, error) {
	net, _, _, err := analyzable(net)
	if err != nil {
		return false, err
	}
	p := newPropagation(net)
	conns := net.ConnectionsAt(s)
	if len(conns) == 0 {
		return true, nil
	}
	delays, err := edfLocalDelays(net, s, conns, p)
	if err != nil {
		return false, err
	}
	for i, c := range conns {
		d, err := LocalDeadline(net, c)
		if err != nil {
			return false, err
		}
		if delays[i] > d+net.Servers[s].Latency+1e-12 {
			return false, nil
		}
	}
	return true, nil
}
