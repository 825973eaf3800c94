package analysis

import (
	"context"
	"fmt"
	"math"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// boundsClose compares delay/backlog values with a tight relative
// tolerance. The reworked engine reassociates floating-point sums (SumN
// merges k operands in one pass where the reference folds pairwise), so
// last-ulp differences are legitimate; anything larger is a bug.
func boundsClose(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// checkResultsClose fails the test unless two results agree on every bound,
// stage delay, and backlog up to boundsClose.
func checkResultsClose(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Bounds) != len(want.Bounds) {
		t.Fatalf("%s: %d bounds, reference has %d", label, len(got.Bounds), len(want.Bounds))
	}
	for i := range got.Bounds {
		if !boundsClose(got.Bounds[i], want.Bounds[i]) {
			t.Errorf("%s: conn %d bound %v, reference %v", label, i, got.Bounds[i], want.Bounds[i])
		}
	}
	for i := range got.Stages {
		if len(got.Stages[i]) != len(want.Stages[i]) {
			t.Errorf("%s: conn %d has %d stages, reference %d", label, i, len(got.Stages[i]), len(want.Stages[i]))
			continue
		}
		for j := range got.Stages[i] {
			if !boundsClose(got.Stages[i][j].Delay, want.Stages[i][j].Delay) {
				t.Errorf("%s: conn %d stage %d delay %v, reference %v",
					label, i, j, got.Stages[i][j].Delay, want.Stages[i][j].Delay)
			}
		}
	}
	for s := range got.Backlogs {
		if !boundsClose(got.Backlogs[s], want.Backlogs[s]) {
			t.Errorf("%s: server %d backlog %v, reference %v", label, s, got.Backlogs[s], want.Backlogs[s])
		}
	}
}

// differentialCorpus returns the randomized networks both engines are
// compared on: small feedforward meshes across seeds plus the paper's
// tandem at several sizes and loads.
func differentialCorpus(t *testing.T) map[string]*topo.Network {
	t.Helper()
	nets := map[string]*topo.Network{}
	for seed := int64(1); seed <= 26; seed++ {
		net, err := topo.RandomFeedforward(6, 9, 0.6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nets[fmt.Sprintf("ff6x9-seed%d", seed)] = net
	}
	for _, tc := range []struct {
		n    int
		load float64
	}{{3, 0.5}, {4, 0.8}, {6, 0.7}, {8, 0.9}} {
		net, err := topo.PaperTandem(tc.n, tc.load)
		if err != nil {
			t.Fatalf("tandem(%d, %g): %v", tc.n, tc.load, err)
		}
		nets[fmt.Sprintf("tandem%d-u%g", tc.n, tc.load)] = net
	}
	return nets
}

// TestCurveEngineMatchesReference runs the reworked engines against the
// frozen pre-overhaul implementations (reference_test.go) on a randomized
// corpus, across every ChainLength / DeconvPropagation configuration.
func TestCurveEngineMatchesReference(t *testing.T) {
	for name, net := range differentialCorpus(t) {
		got, err := Decomposed{}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: decomposed: %v", name, err)
		}
		want, err := refDecomposedAnalyze(net)
		if err != nil {
			t.Fatalf("%s: reference decomposed: %v", name, err)
		}
		checkResultsClose(t, name+"/decomposed", got, want)

		for chainLen := 1; chainLen <= 4; chainLen++ {
			for _, deconv := range []bool{false, true} {
				a := Integrated{ChainLength: chainLen, DeconvPropagation: deconv, Sequential: true}
				got, err := a.Analyze(net)
				if err != nil {
					t.Fatalf("%s: integrated: %v", name, err)
				}
				want, err := refIntegratedAnalyze(a, net)
				if err != nil {
					t.Fatalf("%s: reference integrated: %v", name, err)
				}
				label := fmt.Sprintf("%s/integrated-L%d-deconv%v", name, chainLen, deconv)
				checkResultsClose(t, label, got, want)
			}
		}
	}
}

// TestParallelAnalyzeDeterministic checks that the level-parallel analysis
// is bitwise identical to the sequential order: within one engine there is
// no floating-point reassociation, so equality must be exact. IntegratedSP
// runs on the same driver; its sequential order is the driver's internal
// switch.
func TestParallelAnalyzeDeterministic(t *testing.T) {
	for name, net := range spRandomCorpus(t) {
		par, err := IntegratedSP{}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		core := IntegratedSP{}.core()
		core.sequential = true
		seq, err := core.analyze(context.Background(), net)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		requireSameResult(t, name, seq, par)
	}
	nets := differentialCorpus(t)
	for seed := int64(100); seed < 126; seed++ {
		net, err := topo.RandomFeedforward(10, 16, 0.65, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nets[fmt.Sprintf("ff10x16-seed%d", seed)] = net
	}
	nets["forest"] = forestNet(8, 5)
	for name, net := range nets {
		par, err := Integrated{DeconvPropagation: true}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		seq, err := Integrated{DeconvPropagation: true, Sequential: true}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for i := range par.Bounds {
			if par.Bounds[i] != seq.Bounds[i] {
				t.Errorf("%s: conn %d parallel bound %v != sequential %v", name, i, par.Bounds[i], seq.Bounds[i])
			}
		}
		for i := range par.Stages {
			if len(par.Stages[i]) != len(seq.Stages[i]) {
				t.Errorf("%s: conn %d parallel has %d stages, sequential %d",
					name, i, len(par.Stages[i]), len(seq.Stages[i]))
				continue
			}
			for j := range par.Stages[i] {
				if par.Stages[i][j].Delay != seq.Stages[i][j].Delay {
					t.Errorf("%s: conn %d stage %d parallel delay %v != sequential %v",
						name, i, j, par.Stages[i][j].Delay, seq.Stages[i][j].Delay)
				}
			}
		}
		for s := range par.Backlogs {
			if par.Backlogs[s] != seq.Backlogs[s] {
				t.Errorf("%s: server %d parallel backlog %v != sequential %v", name, s, par.Backlogs[s], seq.Backlogs[s])
			}
		}
	}
}

// forestNet builds nGroups disjoint tandems of groupLen switches, each
// crossed by a handful of multi-hop connections. Every chain sits in
// dependency level zero, so the parallel analyzer runs all of them
// concurrently — the workload the race stress below leans on.
func forestNet(nGroups, groupLen int) *topo.Network {
	var servers []server.Server
	var conns []topo.Connection
	for g := 0; g < nGroups; g++ {
		base := g * groupLen
		for s := 0; s < groupLen; s++ {
			servers = append(servers, server.Server{
				Name: fmt.Sprintf("g%ds%d", g, s), Capacity: 1, Discipline: server.FIFO,
			})
		}
		for c := 0; c < 4; c++ {
			hops := 2 + (g+c)%(groupLen-1)
			start := c % (groupLen - hops + 1)
			path := make([]int, hops)
			for h := range path {
				path[h] = base + start + h
			}
			conns = append(conns, topo.Connection{
				Name:       fmt.Sprintf("g%dc%d", g, c),
				Bucket:     traffic.TokenBucket{Sigma: 1 + 0.1*float64(c), Rho: 0.08 * (1 + 0.01*float64(g))},
				AccessRate: 1,
				Path:       path,
				Deadline:   1000,
			})
		}
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

// TestParallelAnalyzeRaceStress repeatedly analyzes a forest of disjoint
// chains so that many goroutines run per level; meaningful under -race.
func TestParallelAnalyzeRaceStress(t *testing.T) {
	net := forestNet(10, 5)
	a := Integrated{DeconvPropagation: true}
	first, err := a.Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		res, err := a.Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Bounds {
			if res.Bounds[i] != first.Bounds[i] {
				t.Fatalf("round %d: conn %d bound %v differs from first run %v", round, i, res.Bounds[i], first.Bounds[i])
			}
		}
	}
}
