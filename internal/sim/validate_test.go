package sim

import (
	"fmt"
	"math"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// packetSlack is the tolerance to allow on top of a fluid bound for a
// packetized simulation; see QuantizationSlack.
func packetSlack(packetSize float64, net *topo.Network, conn int) float64 {
	return QuantizationSlack(net, conn, packetSize)
}

// assertBoundsHold simulates the network with greedy sources and checks
// every connection's observed delay against the analyzer's bound.
func assertBoundsHold(t *testing.T, net *topo.Network, a analysis.Analyzer, label string) {
	t.Helper()
	res, err := a.Analyze(net)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	const L = 0.02
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for c := range net.Connections {
		slack := packetSlack(L, net, c)
		if sres.Stats[c].MaxDelay > res.Bound(c)+slack {
			t.Errorf("%s conn %d: simulated %g exceeds bound %g (+slack %g)",
				label, c, sres.Stats[c].MaxDelay, res.Bound(c), slack)
		}
	}
}

func TestBoundsHoldOnPaperTandem(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		for _, u := range []float64{0.3, 0.6, 0.9} {
			net, err := topo.PaperTandem(n, u)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n=%d U=%g", n, u)
			assertBoundsHold(t, net, analysis.Decomposed{}, label+" decomposed")
			assertBoundsHold(t, net, analysis.Integrated{}, label+" integrated")
			assertBoundsHold(t, net, analysis.ServiceCurve{}, label+" servicecurve")
		}
	}
}

func TestBoundsHoldOnParkingLot(t *testing.T) {
	net, err := topo.ParkingLot(4, 1, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBoundsHold(t, net, analysis.Decomposed{}, "parkinglot decomposed")
	assertBoundsHold(t, net, analysis.Integrated{}, "parkinglot integrated")
}

func TestBoundsHoldOnSinkTree(t *testing.T) {
	net, err := topo.SinkTree(3, 1, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBoundsHold(t, net, analysis.Decomposed{}, "tree decomposed")
	assertBoundsHold(t, net, analysis.Integrated{}, "tree integrated")
}

func TestBoundsHoldOnRandomFeedforward(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		net, err := topo.RandomFeedforward(5, 8, 0.7, seed)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("random seed %d", seed)
		assertBoundsHold(t, net, analysis.Decomposed{}, label+" decomposed")
		assertBoundsHold(t, net, analysis.Integrated{}, label+" integrated")
	}
}

func TestBoundsHoldUnderNonGreedySources(t *testing.T) {
	// Bounds are worst-case over all conforming sources; on-off and CBR
	// traffic must stay below them too.
	net, err := topo.PaperTandem(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (analysis.Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	const L = 0.02
	sources := map[int]Source{}
	for i, c := range net.Connections {
		if i%2 == 0 {
			sources[i] = OnOffSource{Sigma: c.Bucket.Sigma, Rho: c.Bucket.Rho, Access: c.AccessRate, On: 3, Off: 2, Phase: float64(i)}
		} else {
			sources[i] = CBRSource{Rate: c.Bucket.Rho, Offset: 0.1 * float64(i)}
		}
	}
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net), Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	for c := range net.Connections {
		if sres.Stats[c].MaxDelay > res.Bound(c)+packetSlack(L, net, c) {
			t.Errorf("conn %d: non-greedy simulated %g exceeds bound %g",
				c, sres.Stats[c].MaxDelay, res.Bound(c))
		}
	}
}

func TestSingleFIFOBoundIsTight(t *testing.T) {
	// At one server the FIFO bound is exact in the fluid limit: greedy
	// simulation should come within a few packet times of it.
	net, err := topo.PaperTandem(1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (analysis.Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	const L = 0.005
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
	if err != nil {
		t.Fatal(err)
	}
	gap := res.Bound(0) - sres.Stats[0].MaxDelay
	if gap < -packetSlack(L, net, 0) || gap > 0.05 {
		t.Errorf("single-server bound %g vs simulated %g: gap %g (bound should be tight)",
			res.Bound(0), sres.Stats[0].MaxDelay, gap)
	}
}

func TestStaticPriorityBoundsHold(t *testing.T) {
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: 3, Sigma: 1, Rho: 0.15, Capacity: 1,
		Discipline: server.StaticPriority, Priority0: 0, PriorityCross: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (analysis.Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	const L = 0.02
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
	if err != nil {
		t.Fatal(err)
	}
	for c, conn := range net.Connections {
		// The fluid SP analysis is preemptive; the packet simulator is
		// non-preemptive, so a high-priority packet can additionally wait
		// for one lower-priority packet in service per hop.
		slack := packetSlack(L, net, c) + float64(len(conn.Path))*L
		if sres.Stats[c].MaxDelay > res.Bound(c)+slack {
			t.Errorf("SP conn %d: simulated %g exceeds bound %g (+%g)",
				c, sres.Stats[c].MaxDelay, res.Bound(c), slack)
		}
	}
}

func TestGuaranteedRateBoundsHold(t *testing.T) {
	net := &topo.Network{
		Servers: []server.Server{
			{Capacity: 1, Discipline: server.GuaranteedRate, Latency: 0.1},
			{Capacity: 1, Discipline: server.GuaranteedRate, Latency: 0.1},
		},
		Connections: []topo.Connection{
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.3}, AccessRate: 1, Path: []int{0, 1}, Rate: 0.5},
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.3}, AccessRate: 1, Path: []int{0}, Rate: 0.5},
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.3}, AccessRate: 1, Path: []int{1}, Rate: 0.5},
		},
	}
	res, err := (analysis.GuaranteedRateNetworkCurve{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	const L = 0.01
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
	if err != nil {
		t.Fatal(err)
	}
	for c, conn := range net.Connections {
		// SCFQ lags fluid GPS by up to one packet per flow per hop plus
		// transmission quantization.
		slack := packetSlack(L, net, c) + float64(len(conn.Path))*L/conn.Rate
		if sres.Stats[c].MaxDelay > res.Bound(c)+slack {
			t.Errorf("GR conn %d: simulated %g exceeds bound %g (+%g)",
				c, sres.Stats[c].MaxDelay, res.Bound(c), slack)
		}
	}
}

func TestRunValidation(t *testing.T) {
	net, _ := topo.PaperTandem(2, 0.5)
	if _, err := Run(net, Config{PacketSize: 0, Horizon: 10}); err == nil {
		t.Error("expected packet-size error")
	}
	if _, err := Run(net, Config{PacketSize: 0.1, Horizon: 0}); err == nil {
		t.Error("expected horizon error")
	}
}

func TestRunConservation(t *testing.T) {
	// Every emitted packet must eventually be delivered.
	net, _ := topo.PaperTandem(3, 0.8)
	const L = 0.05
	emitted := 0
	for _, c := range net.Connections {
		src := GreedySource{Sigma: c.Bucket.Sigma, Rho: c.Bucket.Rho, Access: c.AccessRate}
		emitted += len(src.Times(L, 40))
	}
	res, err := Run(net, Config{PacketSize: L, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != emitted {
		t.Errorf("delivered %d of %d packets", res.Delivered, emitted)
	}
	for c := range net.Connections {
		if res.Stats[c].Packets == 0 {
			t.Errorf("connection %d delivered nothing", c)
		}
		if res.Stats[c].Mean() > res.Stats[c].MaxDelay {
			t.Errorf("connection %d: mean %g above max %g", c, res.Stats[c].Mean(), res.Stats[c].MaxDelay)
		}
	}
	if res.Clock <= 0 {
		t.Error("clock did not advance")
	}
}

func TestWorstCaseHorizonReasonable(t *testing.T) {
	net, _ := topo.PaperTandem(4, 0.9)
	h := WorstCaseHorizon(net)
	if h < 50 || math.IsInf(h, 1) {
		t.Errorf("horizon %g out of range", h)
	}
}

// TestWorstCaseHorizonScalesWithRates is the horizon's law of units:
// scaling every rate of a network (capacities, sustained, access and
// reserved rates) by 2^j scales its horizon by 2^-j exactly, whether the
// busy-period term binds or the floor of 50 bit-times of the fastest line.
func TestWorstCaseHorizonScalesWithRates(t *testing.T) {
	scale := func(net *topo.Network, k float64) *topo.Network {
		out := &topo.Network{
			Servers:     append([]server.Server(nil), net.Servers...),
			Connections: append([]topo.Connection(nil), net.Connections...),
		}
		for i := range out.Servers {
			out.Servers[i].Capacity *= k
		}
		for i := range out.Connections {
			c := &out.Connections[i]
			c.Bucket.Rho *= k
			c.AccessRate *= k
			c.Rate *= k
		}
		return out
	}
	tandem, err := topo.PaperTandem(4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	short, err := topo.PaperTandem(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	random, err := topo.RandomFeedforward(12, 40, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	mixed := scale(random, 1)
	for i := range mixed.Servers {
		mixed.Servers[i].Capacity *= float64(1 + i%3)
	}
	lone := &topo.Network{
		Servers:     []server.Server{{Name: "s", Capacity: 3}},
		Connections: []topo.Connection{{Name: "c", Bucket: traffic.TokenBucket{Sigma: 0.1, Rho: 1}, Path: []int{0}}},
	}
	for _, tc := range []struct {
		name  string
		net   *topo.Network
		floor float64 // the horizon when the floor binds, else 0
	}{
		{"tandem4", tandem, 0},
		{"tandem2", short, 50},
		{"random", random, 0},
		{"mixed capacities", mixed, 0},
		{"lone", lone, 50.0 / 3},
	} {
		h := WorstCaseHorizon(tc.net)
		if (h == tc.floor) != (tc.floor != 0) {
			t.Errorf("%s: horizon %v, floor %v: the case no longer tests the term it names", tc.name, h, tc.floor)
		}
		for _, j := range []int{-20, -3, 1, 27} {
			if got, want := WorstCaseHorizon(scale(tc.net, math.Ldexp(1, j))), math.Ldexp(h, -j); got != want {
				t.Errorf("%s: rates x 2^%d give horizon %v, want %v", tc.name, j, got, want)
			}
		}
	}
}

func TestEDFBoundsHold(t *testing.T) {
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: 3, Sigma: 1, Rho: 0.15, Capacity: 1, Discipline: server.EDF,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0 gets a tight deadline, cross traffic a loose one.
	for i := range net.Connections {
		if i == 0 {
			net.Connections[i].Deadline = 6
		} else {
			net.Connections[i].Deadline = 30
		}
	}
	res, err := (analysis.Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	const L = 0.02
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
	if err != nil {
		t.Fatal(err)
	}
	for c, conn := range net.Connections {
		// Non-preemptive EDF blocks an urgent packet for at most one
		// packet in service per hop, like static priority.
		slack := packetSlack(L, net, c) + float64(len(conn.Path))*L
		if sres.Stats[c].MaxDelay > res.Bound(c)+slack {
			t.Errorf("EDF conn %d: simulated %g exceeds bound %g (+%g)",
				c, sres.Stats[c].MaxDelay, res.Bound(c), slack)
		}
	}
	// The urgent connection must actually benefit from its deadline in
	// execution relative to the loose cross traffic at equal hop counts.
	if res.Bound(0) <= 0 {
		t.Error("urgent bound not positive")
	}
}

func TestEDFSimRequiresDeadline(t *testing.T) {
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: 2, Sigma: 1, Rho: 0.1, Capacity: 1, Discipline: server.EDF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(net, Config{PacketSize: 0.1, Horizon: 10}); err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestBacklogBoundsHold(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, u := range []float64{0.5, 0.9} {
			net, err := topo.PaperTandem(n, u)
			if err != nil {
				t.Fatal(err)
			}
			const L = 0.02
			sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []analysis.Analyzer{analysis.Decomposed{}, analysis.Integrated{}, analysis.ServiceCurve{}} {
				res, err := a.Analyze(net)
				if err != nil {
					t.Fatal(err)
				}
				for s := range net.Servers {
					// A packetized arrival can momentarily exceed the fluid
					// level by one packet per contributing connection.
					slack := L * float64(len(net.ConnectionsAt(s)))
					if sres.MaxBacklog[s] > res.Backlog(s)+slack {
						t.Errorf("%s n=%d U=%g server %d: simulated backlog %g exceeds bound %g",
							a.Name(), n, u, s, sres.MaxBacklog[s], res.Backlog(s))
					}
					if res.Backlog(s) <= 0 {
						t.Errorf("%s: server %d backlog bound %g not positive", a.Name(), s, res.Backlog(s))
					}
				}
			}
		}
	}
}

func TestBacklogSingleServerTight(t *testing.T) {
	// One server, three fresh capped flows: bound (k-1)*C*sigma/(C-rho)
	// is reached by the greedy scenario in the fluid limit.
	net, err := topo.PaperTandem(1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (analysis.Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 1 / (1 - 0.2) // (k-1)*sigma*C/(C-rho), k=3, rho=U/4=0.2
	if math.Abs(res.Backlog(0)-want) > 1e-9 {
		t.Errorf("backlog bound %g, want %g", res.Backlog(0), want)
	}
	const L = 0.005
	sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.Backlog(0) - sres.MaxBacklog[0]; gap < -0.05 || gap > 0.05 {
		t.Errorf("single-server backlog bound %g vs simulated %g: not tight", res.Backlog(0), sres.MaxBacklog[0])
	}
}

// Jitter returns the worst-case delay variation (max minus min delay),
// the quantity playout buffers must absorb.
func (s ConnStats) Jitter() float64 {
	if s.Packets == 0 {
		return 0
	}
	return s.MaxDelay - s.MinDelay
}

func TestStatsJitterAndPercentiles(t *testing.T) {
	net, _ := topo.PaperTandem(2, 0.8)
	res, err := Run(net, Config{PacketSize: 0.05, Horizon: 40, KeepSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if st.MinDelay <= 0 || st.MinDelay > st.MaxDelay {
		t.Errorf("min delay %g out of range (max %g)", st.MinDelay, st.MaxDelay)
	}
	if st.Jitter() != st.MaxDelay-st.MinDelay {
		t.Errorf("jitter %g inconsistent", st.Jitter())
	}
	if len(st.Samples) != st.Packets {
		t.Fatalf("%d samples for %d packets", len(st.Samples), st.Packets)
	}
	p50, p99, p100 := st.Percentile(0.5), st.Percentile(0.99), st.Percentile(1)
	if !(st.MinDelay <= p50 && p50 <= p99 && p99 <= p100) {
		t.Errorf("percentiles not ordered: %g %g %g", p50, p99, p100)
	}
	if math.Abs(p100-st.MaxDelay) > 1e-12 {
		t.Errorf("p100 %g != max %g", p100, st.MaxDelay)
	}
	// The minimum delay is at least the pure transmission time of the path.
	floor := 0.0
	for range net.Connections[0].Path {
		floor += 0.05 / 1
	}
	if st.MinDelay < floor-1e-9 {
		t.Errorf("min delay %g below transmission floor %g", st.MinDelay, floor)
	}
	// Without sampling, percentiles are undefined.
	res2, _ := Run(net, Config{PacketSize: 0.05, Horizon: 10})
	if !math.IsNaN(res2.Stats[0].Percentile(0.5)) {
		t.Error("percentile should be NaN without samples")
	}
}

// TestIntegratedSPBoundsHold holds Integrated's static-priority chains (the
// paper's announced extension) above the non-preemptive SP simulator, on
// the pairs of the paper and on the longer chains ChainLength reaches, over
// tandems of 4 and 6 switches at two loads.
func TestIntegratedSPBoundsHold(t *testing.T) {
	const L = 0.02
	worst := 0.0
	for _, chain := range []int{2, 3, 4} {
		for _, n := range []int{4, 6} {
			for _, rho := range []float64{0.1, 0.2} {
				label := fmt.Sprintf("chain%d/n%d/rho%g", chain, n, rho)
				net, err := topo.Tandem(topo.TandemSpec{
					Switches: n, Sigma: 1, Rho: rho, Capacity: 1,
					Discipline: server.StaticPriority, Priority0: 1, PriorityCross: 0,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := (analysis.Integrated{ChainLength: chain}).Analyze(net)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sres, err := Run(net, Config{PacketSize: L, Horizon: WorstCaseHorizon(net)})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for c, conn := range net.Connections {
					slack := packetSlack(L, net, c) + float64(len(conn.Path))*L
					worst = math.Max(worst, sres.Stats[c].MaxDelay/(res.Bound(c)+slack))
					if sres.Stats[c].MaxDelay > res.Bound(c)+slack {
						t.Errorf("%s conn %d: simulated %g exceeds bound %g (+%g)",
							label, c, sres.Stats[c].MaxDelay, res.Bound(c), slack)
					}
				}
			}
		}
	}
	t.Logf("simulated delay at most %.3f of bound + slack", worst)
}
