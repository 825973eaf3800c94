package analysis

import (
	"context"
	"fmt"
	"math"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// singleServerNet builds one FIFO server of the given capacity with k
// identical capped token-bucket connections.
func singleServerNet(k int, sigma, rho, capacity float64) *topo.Network {
	net := &topo.Network{
		Servers: []server.Server{{Name: "s0", Capacity: capacity, Discipline: server.FIFO}},
	}
	for i := 0; i < k; i++ {
		net.Connections = append(net.Connections, topo.Connection{
			Bucket:     traffic.TokenBucket{Sigma: sigma, Rho: rho},
			AccessRate: capacity,
			Path:       []int{0},
		})
	}
	return net
}

func TestDecomposedSingleServerClosedForm(t *testing.T) {
	// k identical capped (sigma, rho) flows into a FIFO server of rate C:
	// the aggregate is k*min(C t, sigma + rho t); the worst backlog grows
	// until the per-flow knee t* = sigma/(C - rho), so the delay bound is
	// (k-1) * sigma / (C - rho).
	cases := []struct {
		k                   int
		sigma, rho, c, want float64
	}{
		{3, 1, 0.2, 1, 2.5}, // 2*1/0.8
		{4, 1, 0.125, 1, 24.0 / 7},
		{2, 2, 0.5, 2, 4.0 / 3}, // 1*2/1.5
		{1, 1, 0.5, 1, 0},       // a single flow through a line suffers no queueing
	}
	for _, tc := range cases {
		net := singleServerNet(tc.k, tc.sigma, tc.rho, tc.c)
		res, err := (Decomposed{}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Connections {
			if got := res.Bound(i); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("k=%d sigma=%g rho=%g C=%g: bound = %g, want %g",
					tc.k, tc.sigma, tc.rho, tc.c, got, tc.want)
			}
		}
	}
}

func TestDecomposedPureBucketBurstSum(t *testing.T) {
	// Uncapped token buckets dump their bursts instantaneously: the local
	// delay is the total burst over the capacity (plus self smoothing; for
	// pure buckets the sup is at t -> 0+ giving sum sigma / C).
	net := &topo.Network{
		Servers: []server.Server{{Capacity: 2, Discipline: server.FIFO}},
		Connections: []topo.Connection{
			{Bucket: traffic.TokenBucket{Sigma: 3, Rho: 0.5}, Path: []int{0}},
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.5}, Path: []int{0}},
		},
	}
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Bound(0), 2.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("bound = %g, want %g", got, want)
	}
}

func TestDecomposedUnstableNetwork(t *testing.T) {
	net := singleServerNet(3, 1, 0.4, 1) // total rate 1.2 > 1
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		if !math.IsInf(res.Bound(i), 1) {
			t.Errorf("unstable network: bound %d = %g, want +Inf", i, res.Bound(i))
		}
	}
}

func TestDecomposedStagesSumToBound(t *testing.T) {
	net, err := topo.PaperTandem(5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range net.Connections {
		sum := 0.0
		for _, st := range res.Stages[i] {
			sum += st.Delay
		}
		if math.Abs(sum-res.Bound(i)) > 1e-9 {
			t.Errorf("connection %d: stages sum %g != bound %g", i, sum, res.Bound(i))
		}
		if len(res.Stages[i]) != len(c.Path) {
			t.Errorf("connection %d: %d stages for %d hops", i, len(res.Stages[i]), len(c.Path))
		}
	}
}

func TestDecomposedMonotoneInLoadAndSize(t *testing.T) {
	prev := 0.0
	for _, u := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		net, err := topo.PaperTandem(4, u)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (Decomposed{}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound(0) <= prev {
			t.Errorf("bound not increasing in load: %g after %g", res.Bound(0), prev)
		}
		prev = res.Bound(0)
	}
	prev = 0.0
	for _, n := range []int{1, 2, 4, 8} {
		net, err := topo.PaperTandem(n, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (Decomposed{}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound(0) <= prev {
			t.Errorf("bound not increasing in size: %g after %g", res.Bound(0), prev)
		}
		prev = res.Bound(0)
	}
}

func TestDecomposedCrossConnectionsCheaperThanConn0(t *testing.T) {
	net, err := topo.PaperTandem(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(net.Connections); i++ {
		if res.Bound(i) >= res.Bound(0) {
			t.Errorf("cross connection %d bound %g >= conn0 bound %g", i, res.Bound(i), res.Bound(0))
		}
	}
}

func TestDecomposedStaticPriority(t *testing.T) {
	// Two classes at one server: high priority sees only itself; low
	// priority waits for the high burst too.
	net := &topo.Network{
		Servers: []server.Server{{Capacity: 1, Discipline: server.StaticPriority}},
		Connections: []topo.Connection{
			{Name: "hi", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0}, Priority: 0},
			{Name: "lo", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0}, Priority: 1},
		},
	}
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound(0) >= res.Bound(1) {
		t.Errorf("high priority %g should beat low priority %g", res.Bound(0), res.Bound(1))
	}
	// A single capped flow alone on a line has zero queueing delay.
	if res.Bound(0) > 1e-9 {
		t.Errorf("highest priority lone flow delay = %g, want 0", res.Bound(0))
	}
	// FIFO on the same traffic sits between the two priorities.
	for i := range net.Servers {
		net.Servers[i].Discipline = server.FIFO
	}
	fres, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Bound(0) <= fres.Bound(0) && fres.Bound(1) <= res.Bound(1)+1e-9) {
		t.Errorf("FIFO bounds %g/%g not between SP bounds %g/%g",
			fres.Bound(0), fres.Bound(1), res.Bound(0), res.Bound(1))
	}
}

func TestDecomposedGuaranteedRate(t *testing.T) {
	net := &topo.Network{
		Servers: []server.Server{
			{Capacity: 1, Discipline: server.GuaranteedRate, Latency: 0.1},
			{Capacity: 1, Discipline: server.GuaranteedRate, Latency: 0.1},
		},
		Connections: []topo.Connection{
			{Bucket: traffic.TokenBucket{Sigma: 2, Rho: 0.3}, Path: []int{0, 1}, Rate: 0.5},
			{Bucket: traffic.TokenBucket{Sigma: 2, Rho: 0.3}, Path: []int{0, 1}, Rate: 0.5},
		},
	}
	res, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	// Per hop: T + sigma'/R with burst growing by rho*d per hop.
	d1 := 0.1 + 2.0/0.5
	d2 := 0.1 + (2.0+0.3*d1)/0.5
	want := d1 + d2
	if math.Abs(res.Bound(0)-want) > 1e-9 {
		t.Errorf("GR decomposed bound = %g, want %g", res.Bound(0), want)
	}
}

func TestDecomposedGuaranteedRateOversubscribed(t *testing.T) {
	net := &topo.Network{
		Servers: []server.Server{{Capacity: 1, Discipline: server.GuaranteedRate}},
		Connections: []topo.Connection{
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.3}, Path: []int{0}, Rate: 0.7},
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.3}, Path: []int{0}, Rate: 0.7},
		},
	}
	if _, err := (Decomposed{}).Analyze(net); err == nil {
		t.Fatal("expected oversubscription error")
	}
}

func TestDecomposedInvalidNetwork(t *testing.T) {
	net := &topo.Network{} // no servers
	if _, err := (Decomposed{}).Analyze(net); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestDecomposedStaticPriorityChargesInteriorBurst pins the per-class rule
// on a more urgent class whose envelope is a staircase: a unit burst at 0,
// another at 2, slope 0.3 after. The leftover [t - higher(t)]^+ jumps down
// at 2, where the second burst lands; its monotone closure is zero until 2
// and 0.7(t-2) after, so the low class's unit burst clears at
// 2 + 1/0.7 ~ 3.43 — the same bound IntegratedSP reads off its
// rate-latency minorant (rate 0.7, latency the busy period 2). A leftover
// whose jump is flipped upward forgets the second burst (bound 2).
func TestDecomposedStaticPriorityChargesInteriorBurst(t *testing.T) {
	stair := minplus.New([]minplus.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}}, 0.3)
	net := &topo.Network{
		Servers: []server.Server{{Capacity: 1, Discipline: server.StaticPriority}},
		Connections: []topo.Connection{
			{Name: "hi", Bucket: traffic.TokenBucket{Sigma: 2, Rho: 0.3}, Envelope: &stair, Path: []int{0}, Priority: 0},
			{Name: "lo", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, Path: []int{0}, Priority: 1},
		},
	}
	dec, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := (IntegratedSP{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 1/0.7
	if !boundsClose(dec.Bound(1), want) || !boundsClose(isp.Bound(1), want) {
		t.Errorf("low class: Decomposed %v, IntegratedSP %v, want %v", dec.Bound(1), isp.Bound(1), want)
	}
}

// TestDecomposedIncrementalMatchesFullPerDiscipline is the
// incremental-equals-full differential for every discipline the per-class
// loop serves besides FIFO (covered by the random corpora): on the
// benchmark's tandems of static-priority, EDF and guaranteed-rate servers,
// extending a baseline by the last connection and shrinking the full one by
// any connection are bit-identical to analyzing the result from scratch.
func TestDecomposedIncrementalMatchesFullPerDiscipline(t *testing.T) {
	ctx := context.Background()
	for _, d := range []server.Discipline{server.StaticPriority, server.EDF, server.GuaranteedRate} {
		net, err := disciplineTandem(6, d)
		if err != nil {
			t.Fatal(err)
		}
		last := len(net.Connections) - 1
		base, err := (Decomposed{}).NewBaseline(&topo.Network{Servers: net.Servers, Connections: net.Connections[:last]})
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.ExtendContext(ctx, net.Connections[last])
		if err != nil {
			t.Fatal(err)
		}
		full, err := (Decomposed{}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("%v/extend", d), full, ext.Result())
		if ext.Stats.ReplayedUnits == 0 {
			t.Errorf("%v: extending by a one-hop connection replayed no unit", d)
		}
		whole := ext.Promote()
		for remove := range net.Connections {
			shrunk, err := whole.ShrinkContext(ctx, remove)
			if err != nil {
				t.Fatal(err)
			}
			want, err := (Decomposed{}).Analyze(&topo.Network{Servers: net.Servers, Connections: removeAt(net.Connections, remove)})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%v/remove%d", d, remove), want, shrunk.Result())
		}
	}
}
