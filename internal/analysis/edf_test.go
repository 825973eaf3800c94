package analysis

import (
	"math"
	"math/rand"
	"testing"

	"delaycalc/internal/minplus"
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

func TestEDFOverloadIsUnbounded(t *testing.T) {
	// Like every other discipline, an overloaded EDF server degrades the
	// analysis to +Inf bounds rather than failing it.
	net := edfNet(10, 20)
	net.Connections[0].Bucket.Rho = 0.9
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		if !math.IsInf(res.Bound(i), 1) {
			t.Errorf("conn %d: bound %g on an overloaded EDF server, want +Inf", i, res.Bound(i))
		}
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

// TestEDFDelaysMatchUniformLateness holds the EDF class of Decomposed's
// per-class rule, D_j + h(W, Rate(C)) + latency, to D_j + L + latency with
// the classical uniform lateness L = max(0, sup_tau (W(tau) - C*tau)/C) as
// the reference, on random single EDF servers: bit for bit at unit
// capacity, within 1e-12 relative at the others (0.6 and 1.7 are analysed
// as given, 4 and 25 after normalizeNetwork rescales them to 1).
func TestEDFDelaysMatchUniformLateness(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	capacities := []float64{1, 1, 1, 0.6, 1.7, 4, 25}
	late := 0
	for trial := 0; trial < 400; trial++ {
		capacity := capacities[trial%len(capacities)]
		latency := 0.0
		if rng.Intn(2) == 0 {
			latency = 0.5 * rng.Float64()
		}
		net := &topo.Network{Servers: []server.Server{{Capacity: capacity, Latency: latency, Discipline: server.EDF}}}
		n := 1 + rng.Intn(6)
		load := 0.95 * rng.Float64() * capacity
		for j := 0; j < n; j++ {
			conn := topo.Connection{
				Bucket:   traffic.TokenBucket{Sigma: capacity * (0.05 + 3*rng.Float64()), Rho: load / float64(n)},
				Path:     []int{0},
				Deadline: 0.05 + 10*rng.Float64(),
			}
			switch rng.Intn(4) {
			case 0, 1:
				conn.AccessRate = conn.Bucket.Rho + capacity*(0.1+2*rng.Float64())
			case 2:
				// Positive at 0, like an envelope propagated past a hop:
				// its deadline shift must stay zero up to D_j.
				env := minplus.Affine(conn.Bucket.Rho, conn.Bucket.Sigma)
				conn.Envelope = &env
			}
			net.Connections = append(net.Connections, conn)
		}
		res, err := (Decomposed{}).Analyze(net)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shifted := make([]minplus.Curve, n)
		for j, conn := range net.Connections {
			shifted[j] = minplus.ZeroUntil(minplus.Delay(conn.SourceEnvelope(), conn.Deadline), conn.Deadline)
		}
		lateness := math.Max(0, minplus.SupDiff(minplus.SumN(shifted...), minplus.Rate(capacity))/capacity)
		if lateness > 0 {
			late++
		}
		for j, conn := range net.Connections {
			want, got := conn.Deadline+lateness+latency, res.Bound(j)
			if capacity == 1 && got != want {
				t.Errorf("trial %d conn %d: bound %v, want %v bit for bit", trial, j, got, want)
			}
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("trial %d (C=%g) conn %d: bound %v, want %v within 1e-12", trial, capacity, j, got, want)
			}
		}
	}
	t.Logf("%d of 400 servers late", late)
	if late < 40 || late > 360 {
		t.Errorf("%d of 400 servers were late: the draw does not exercise both regimes", late)
	}
}
