package analysis

import (
	"math"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// edfNet builds one EDF server with two connections whose end-to-end
// deadlines are given.
func edfNet(d1, d2 float64) *topo.Network {
	return &topo.Network{
		Servers: []server.Server{{Capacity: 1, Discipline: server.EDF}},
		Connections: []topo.Connection{
			{Name: "a", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0}, Deadline: d1},
			{Name: "b", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0}, Deadline: d2},
		},
	}
}

func TestEDFSchedulableMeetsDeadlines(t *testing.T) {
	// Generous deadlines: the classical admission test
	// sum_j alpha_j(t - D_j) <= C*t holds, so the lateness is zero and each
	// bound equals the local deadline.
	net := edfNet(10, 20)
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bound(0)-10) > 1e-9 || math.Abs(res.Bound(1)-20) > 1e-9 {
		t.Errorf("bounds = %g, %g; want the local deadlines 10, 20", res.Bound(0), res.Bound(1))
	}
}

func TestEDFLatenessAddsUniformly(t *testing.T) {
	// Deadlines too tight for the bursts (not schedulable): the lateness
	// term appears and is the same for both connections (bound - deadline
	// equal).
	net := edfNet(0.5, 0.75)
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	l0 := res.Bound(0) - 0.5
	l1 := res.Bound(1) - 0.75
	if l0 <= 0 {
		t.Fatalf("expected positive lateness, got %g", l0)
	}
	if math.Abs(l0-l1) > 1e-9 {
		t.Errorf("lateness differs between flows: %g vs %g", l0, l1)
	}
}

func TestEDFDistinguishesUrgency(t *testing.T) {
	// With EDF, the urgent flow's bound tracks its deadline; under FIFO
	// both flows share the worst case.
	net := edfNet(1.0, 30)
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	fifoNet := edfNet(1.0, 30)
	fifoNet.Servers[0].Discipline = server.FIFO
	fres, err := (Decomposed{}).Analyze(fifoNet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound(0) >= fres.Bound(0) {
		t.Errorf("urgent EDF bound %g should beat FIFO %g", res.Bound(0), fres.Bound(0))
	}
}

func TestEDFRequiresDeadline(t *testing.T) {
	net := edfNet(10, 0)
	if _, err := (Decomposed{}).Analyze(net); err == nil {
		t.Fatal("expected error for missing deadline at EDF server")
	}
}

func TestLocalDeadlineSplitsEvenly(t *testing.T) {
	net := &topo.Network{
		Servers: []server.Server{
			{Capacity: 1, Discipline: server.EDF},
			{Capacity: 1, Discipline: server.EDF},
			{Capacity: 1, Discipline: server.EDF},
		},
		Connections: []topo.Connection{
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0, 1, 2}, Deadline: 9},
		},
	}
	d, err := localDeadline(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-3) > 1e-12 {
		t.Errorf("local deadline = %g, want 3", d)
	}
	// End-to-end bound: three schedulable hops of 3 each.
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bound(0)-9) > 1e-9 {
		t.Errorf("end-to-end EDF bound = %g, want 9", res.Bound(0))
	}
}

func TestEDFTandemDominatesDeadlinesWhenFeasible(t *testing.T) {
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: 3, Sigma: 1, Rho: 0.1, Capacity: 1, Discipline: server.EDF,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 30
	}
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		if math.IsInf(res.Bound(i), 1) || res.Bound(i) <= 0 {
			t.Errorf("conn %d: bad EDF bound %g", i, res.Bound(i))
		}
	}
}
