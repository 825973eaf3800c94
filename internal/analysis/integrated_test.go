package analysis

import (
	"math"
	"strings"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

func TestIntegratedSingleServerEqualsDecomposed(t *testing.T) {
	net := singleServerNet(4, 1, 0.2, 1)
	ri, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		if math.Abs(ri.Bound(i)-rd.Bound(i)) > 1e-9 {
			t.Errorf("conn %d: integrated %g != decomposed %g on a single server",
				i, ri.Bound(i), rd.Bound(i))
		}
	}
}

func TestIntegratedNeverWorseThanDecomposed(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		for _, u := range []float64{0.2, 0.5, 0.8, 0.95} {
			net, err := topo.PaperTandem(n, u)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := (Integrated{}).Analyze(net)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := (Decomposed{}).Analyze(net)
			if err != nil {
				t.Fatal(err)
			}
			for i := range net.Connections {
				if ri.Bound(i) > rd.Bound(i)+1e-9 {
					t.Errorf("n=%d U=%g conn %d: integrated %g > decomposed %g",
						n, u, i, ri.Bound(i), rd.Bound(i))
				}
			}
		}
	}
}

func TestIntegratedStrictlyBetterOnTandem(t *testing.T) {
	// The headline claim: for the multi-hop connection the integrated
	// bound is strictly tighter, and the relative improvement grows with
	// the network size (paper Figure 5, loads up to 80%).
	prevImprovement := 0.0
	for _, n := range []int{2, 4, 8} {
		net, err := topo.PaperTandem(n, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		ri, _ := (Integrated{}).Analyze(net)
		rd, _ := (Decomposed{}).Analyze(net)
		if ri.Bound(0) >= rd.Bound(0) {
			t.Fatalf("n=%d: integrated %g not better than decomposed %g", n, ri.Bound(0), rd.Bound(0))
		}
		imp := (rd.Bound(0) - ri.Bound(0)) / rd.Bound(0)
		if imp <= prevImprovement {
			t.Errorf("n=%d: improvement %g did not grow (prev %g)", n, imp, prevImprovement)
		}
		prevImprovement = imp
	}
}

func TestIntegratedDisablePairingEqualsDecomposed(t *testing.T) {
	net, err := topo.PaperTandem(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := (Integrated{ChainLength: 1}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		if math.Abs(ri.Bound(i)-rd.Bound(i)) > 1e-9 {
			t.Errorf("conn %d: singleton-integrated %g != decomposed %g",
				i, ri.Bound(i), rd.Bound(i))
		}
	}
}

func TestIntegratedPairingOnTandem(t *testing.T) {
	net, err := topo.PaperTandem(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	subnets := partition(topo.NewGraph(net), 2)
	if len(subnets) != 2 {
		t.Fatalf("expected 2 pairs for a 4-tandem, got %d subnetworks: %+v", len(subnets), subnets)
	}
	for _, sn := range subnets {
		if len(sn.servers) != 2 {
			t.Errorf("expected all pairs on an even tandem, got %v", sn.servers)
		}
	}
	// Odd tandem leaves one singleton.
	net5, _ := topo.PaperTandem(5, 0.5)
	subnets5 := partition(topo.NewGraph(net5), 2)
	singles := 0
	for _, sn := range subnets5 {
		if len(sn.servers) == 1 {
			singles++
		}
	}
	if singles != 1 {
		t.Errorf("5-tandem: expected exactly 1 singleton, got %d", singles)
	}
	// Longer chains: the whole tandem becomes one subnetwork.
	subnetsFull := partition(topo.NewGraph(net), 8)
	if len(subnetsFull) != 1 || len(subnetsFull[0].servers) != 4 {
		t.Errorf("ChainLength=8 on a 4-tandem: got %+v, want one 4-chain", subnetsFull)
	}
}

// TestCycleProbeMatchesToposort pins the partitioner's two-sided cycle
// probe to the plain definition at every extension partition considers:
// merging next into the unit closes a cycle iff the contracted unit graph
// of the partition with the merge — every server in its unit, the unowned
// ones alone — has no topological order. The networks are random meshes,
// fat-trees (where about half of the probes find a cycle) and the paper's
// tandem, at chain lengths 2 to 4.
func TestCycleProbeMatchesToposort(t *testing.T) {
	var nets []*topo.Network
	for seed := int64(1); seed <= 12; seed++ {
		net, err := topo.RandomFeedforward(16, 40, 0.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, k := range []int{2, 4} {
		net, err := topo.FatTree(k, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	tandem, err := topo.PaperTandem(8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, tandem)
	acyclicWith := func(pt *partitioner, g *topo.Graph, unit, next int) bool {
		node := make([]int, g.Servers()) // server -> contracted node
		for s := range node {
			node[s] = len(pt.start) + s
			if u := pt.owner[s]; u >= 0 {
				node[s] = u
			}
		}
		node[next] = unit
		return topo.MinFirstOrder(len(pt.start)+g.Servers(), func(v int, visit func(int)) {
			for s := range node {
				if node[s] != v {
					continue
				}
				for _, e := range g.Succ(s) {
					if w := node[e.To]; w != v {
						visit(w)
					}
				}
			}
		}) != nil
	}
	probes, cycles := 0, 0
	for i, net := range nets {
		g := topo.NewGraph(net)
		for maxLen := 2; maxLen <= 4; maxLen++ {
			pt := newPartitioner(g)
			for _, u := range g.Order() {
				if pt.owner[u] >= 0 {
					continue
				}
				unit := pt.newUnit(u)
				for chain := pt.members(unit); len(chain) < maxLen; chain = pt.members(unit) {
					next := bestSuccessor(g.Succ(chain[len(chain)-1]), pt.owner)
					if next < 0 {
						break
					}
					probes++
					got, want := pt.createsCycle(unit, next), !acyclicWith(pt, g, unit, next)
					if got != want {
						t.Fatalf("network %d, chains of %d: merging %d into %v: probe says cycle %v, toposort %v", i, maxLen, next, chain, got, want)
					}
					if got {
						cycles++
					}
					if !pt.extensionValid(unit, next) {
						break
					}
					pt.assign(unit, next)
				}
			}
		}
	}
	t.Logf("%d probes, %d of them closing a cycle", probes, cycles)
	if cycles == 0 || cycles == probes {
		t.Errorf("%d of %d probes close a cycle: the corpus does not exercise both answers", cycles, probes)
	}
}

func TestIntegratedChainLengths(t *testing.T) {
	// Every chain length yields a valid bound no worse than decomposition
	// (each interval bound is clamped by its local-delay sum, and the
	// interval DP includes the all-singletons segmentation). Strict
	// monotonicity in ChainLength is NOT guaranteed — partitions with
	// different boundaries group different server pairs — but the
	// full-chain analysis must beat the paper's pairs on a long tandem,
	// since its segmentation DP subsumes every intra-chain pairing.
	net, err := topo.PaperTandem(6, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[int]float64{}
	for _, L := range []int{1, 2, 3, 4, 6} {
		res, err := (Integrated{ChainLength: L}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Connections {
			if res.Bound(i) > rd.Bound(i)+1e-9 {
				t.Errorf("ChainLength %d conn %d: %g worse than decomposed %g",
					L, i, res.Bound(i), rd.Bound(i))
			}
		}
		bounds[L] = res.Bound(0)
	}
	if bounds[6] >= bounds[2] {
		t.Errorf("full chain %g not better than pairs %g", bounds[6], bounds[2])
	}
	if math.Abs(bounds[1]-rd.Bound(0)) > 1e-9 {
		t.Errorf("ChainLength 1 = %g should equal decomposed %g", bounds[1], rd.Bound(0))
	}
}

func TestIntegratedStagesConsistent(t *testing.T) {
	net, err := topo.PaperTandem(6, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	stages := stagesOf(t, Integrated{}, net)
	for i, c := range net.Connections {
		sum, hops := 0.0, 0
		for _, st := range stages[i] {
			sum += st.Delay
			hops += len(st.Servers)
		}
		if math.Abs(sum-res.Bound(i)) > 1e-9 {
			t.Errorf("conn %d: stage sum %g != bound %g", i, sum, res.Bound(i))
		}
		if hops != len(c.Path) {
			t.Errorf("conn %d: stages cover %d hops, path has %d", i, hops, len(c.Path))
		}
	}
}

// TestIntegratedRejectsNonFIFO pins Integrated's discipline rule: a network
// all FIFO or all static priority is analyzed; EDF and guaranteed-rate
// servers, and a FIFO server beside a static-priority one, are refused
// with the server named, by Analyze and NewBaseline alike.
func TestIntegratedRejectsNonFIFO(t *testing.T) {
	conns := []topo.Connection{
		{Name: "a", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, Path: []int{0, 1}},
	}
	for _, tc := range []struct {
		disc [2]server.Discipline
		want string // "" accepts
	}{
		{[2]server.Discipline{server.FIFO, server.FIFO}, ""},
		{[2]server.Discipline{server.StaticPriority, server.StaticPriority}, ""},
		{[2]server.Discipline{server.EDF, server.EDF}, "server 0 is EDF"},
		{[2]server.Discipline{server.GuaranteedRate, server.GuaranteedRate}, "server 0 is GuaranteedRate"},
		{[2]server.Discipline{server.FIFO, server.StaticPriority}, "server 1 is StaticPriority, server 0 is FIFO"},
		{[2]server.Discipline{server.StaticPriority, server.FIFO}, "server 1 is FIFO, server 0 is StaticPriority"},
		{[2]server.Discipline{server.FIFO, server.EDF}, "server 1 is EDF"},
	} {
		net := &topo.Network{
			Servers:     []server.Server{{Capacity: 1, Discipline: tc.disc[0]}, {Capacity: 1, Discipline: tc.disc[1]}},
			Connections: conns,
		}
		_, err := (Integrated{}).Analyze(net)
		_, berr := (Integrated{}).NewBaseline(net)
		for _, e := range []error{err, berr} {
			switch {
			case tc.want == "" && e != nil:
				t.Errorf("%v: %v", tc.disc, e)
			case tc.want != "" && (e == nil || !strings.Contains(e.Error(), tc.want)):
				t.Errorf("%v: error %v, want one naming %q", tc.disc, e, tc.want)
			}
		}
	}
}

func TestIntegratedUnstable(t *testing.T) {
	net := singleServerNet(2, 1, 0.6, 1)
	res, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Bound(0), 1) {
		t.Errorf("unstable: bound = %g, want +Inf", res.Bound(0))
	}
}

func TestIntegratedRandomFeedforwardDominatedByDecomposed(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		net, err := topo.RandomFeedforward(6, 10, 0.7, seed)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := (Integrated{}).Analyze(net)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rd, err := (Decomposed{}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Connections {
			if ri.Bound(i) > rd.Bound(i)+1e-9 {
				t.Errorf("seed %d conn %d: integrated %g > decomposed %g",
					seed, i, ri.Bound(i), rd.Bound(i))
			}
			if math.IsInf(ri.Bound(i), 1) {
				t.Errorf("seed %d conn %d: infinite bound on stable network", seed, i)
			}
		}
	}
}

func TestGreedyPairEstimateBelowSoundBound(t *testing.T) {
	// The greedy-scenario Lemma-4 estimate is by construction reachable by
	// at least one conforming scenario, so the sound pair bound must
	// dominate it. Verify on the paper's two-multiplexor subsystem.
	c := 1.0
	f12 := minplus.Sum(minplus.TokenBucketCapped(1, 0.15, c), minplus.TokenBucketCapped(1, 0.15, c))
	f1 := minplus.TokenBucketCapped(1, 0.15, c)
	f2 := minplus.TokenBucketCapped(1, 0.15, c)
	est := GreedyPairEstimate(f12, f1, f2, c, c)
	if est <= 0 {
		t.Fatalf("estimate = %g, want positive", est)
	}
	best := math.Inf(1)
	for _, th1 := range thetaCandidatesArena(nil, c, f1, 5) {
		b1 := residual(nil, minplus.Rate(c), f1, th1)
		for _, th2 := range thetaCandidatesArena(nil, c, f2, 5) {
			b2 := residual(nil, minplus.Rate(c), f2, th2)
			if d := minplus.HorizontalDeviation(f12, minplus.Convolve(b1, b2)); d < best {
				best = d
			}
		}
	}
	if best < est-1e-9 {
		t.Errorf("sound pair bound %g below greedy-scenario estimate %g", best, est)
	}
}

func TestOutputAndArrivalTimeFunctions(t *testing.T) {
	// Single token bucket through a unit server: W = min(t, G) and
	// H(t) = G^{-1}(W(t)) <= t.
	g := minplus.TokenBucketCapped(2, 0.5, 2) // enters at up to rate 2
	w := outputFunction(g, 1)
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		if w.Eval(x) > g.Eval(x)+1e-9 {
			t.Errorf("output exceeds input at %g: %g > %g", x, w.Eval(x), g.Eval(x))
		}
		if w.Eval(x) > x+1e-9 {
			t.Errorf("output exceeds capacity at %g: %g", x, w.Eval(x))
		}
	}
	h := arrivalTimeFunction(g, w)
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		if h.Eval(x) > x+1e-9 {
			t.Errorf("H(%g) = %g > t (bits cannot arrive after they leave)", x, h.Eval(x))
		}
	}
	d := departureTimeFunction(g, w)
	for _, x := range []float64{0.5, 1, 2, 5} {
		if d.Eval(x) < x-1e-9 {
			t.Errorf("D(%g) = %g < t (bits cannot leave before they arrive)", x, d.Eval(x))
		}
	}
}

func TestIntegratedDeterministic(t *testing.T) {
	// Map iteration or goroutine scheduling must never leak into results:
	// repeated runs produce bit-identical bounds.
	net, err := topo.RandomFeedforward(6, 12, 0.7, 42)
	if err != nil {
		t.Fatal(err)
	}
	base, err := (Integrated{ChainLength: 3}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		res, err := (Integrated{ChainLength: 3}).Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Bounds {
			if res.Bounds[i] != base.Bounds[i] {
				t.Fatalf("run %d conn %d: %v != %v (nondeterministic)",
					run, i, res.Bounds[i], base.Bounds[i])
			}
		}
	}
}
