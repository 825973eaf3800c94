package analysis_test

// The differentials that pin the shipped analyzers to the oracle
// (oracle_test.go), and the anchors that pin the oracle to things that are
// not the engine: hand-derived closed forms and the packet simulator.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/falsify"
	"delaycalc/internal/sim"
	"delaycalc/internal/topo"
)

// corpusRun is one network of the differential corpus as the engine and as
// the oracle analyze it, in all five configurations, keyed by the longest
// chain: Integrated's ChainLength 1-4, and 0 for Decomposed. The engine's
// stages are its baseline's.
type corpusRun struct {
	name           string
	net            *topo.Network
	engine, oracle map[int]staged
}

var (
	corpusOnce sync.Once
	corpusRuns []corpusRun
)

// differentialRuns analyzes the corpus once for all the tests that read it,
// in network name order.
func differentialRuns(t *testing.T) []corpusRun {
	corpusOnce.Do(func() {
		for name, net := range analysis.DifferentialCorpus(t) {
			run := corpusRun{name, net, map[int]staged{}, map[int]staged{}}
			for chainLen := 0; chainLen <= 4; chainLen++ {
				var a analysis.Analyzer = analysis.Decomposed{}
				run.oracle[chainLen] = oracleDecomposed(net)
				if chainLen > 0 {
					a = analysis.Integrated{ChainLength: chainLen}
					run.oracle[chainLen] = oracleIntegrated(net, chainLen)
				}
				res, err := a.Analyze(net)
				if err != nil {
					t.Fatalf("%s/%+v: %v", name, a, err)
				}
				run.engine[chainLen] = staged{res, analysis.StagesOf(t, a, net)}
			}
			corpusRuns = append(corpusRuns, run)
		}
		sort.Slice(corpusRuns, func(i, j int) bool { return corpusRuns[i].name < corpusRuns[j].name })
	})
	return corpusRuns
}

// checkStagedClose holds the engine to the oracle: Analyze's bounds and
// backlogs, and its baseline's stages.
func checkStagedClose(t *testing.T, label string, got, want staged) {
	t.Helper()
	analysis.CheckResultsClose(t, label, got.Result, want.Result)
	analysis.CheckStagesClose(t, label, got.Stages, want.Stages)
}

// TestCurveEngineMatchesReference holds Decomposed and every ChainLength
// configuration of Integrated to the oracle on the randomized corpus: 30
// networks, 5 configurations each.
func TestCurveEngineMatchesReference(t *testing.T) {
	for _, run := range differentialRuns(t) {
		for chainLen, got := range run.engine {
			checkStagedClose(t, fmt.Sprintf("%s/chains of %d", run.name, chainLen), got, run.oracle[chainLen])
		}
	}
}

// TestCurveEngineAllocs holds Integrated to the curve-engine overhaul's
// acceptance facts on the 64-switch / 400-connection tandem without reading
// a clock: the oracle's bounds, and a steady-state allocation count under a
// committed ceiling. BenchmarkIntegratedAnalyze is the wall-clock row of the
// same fixture.
func TestCurveEngineAllocs(t *testing.T) {
	net := analysis.BenchTandemNet(64, 400)
	res, allocs, _ := analysis.AnalyzeAllocs(t, analysis.Integrated{}, net)
	checkStagedClose(t, "tandem64x400", staged{res, analysis.StagesOf(t, analysis.Integrated{}, net)}, oracleIntegrated(net, 2))
	t.Logf("%.0f allocs/pass", allocs)
	// Measured 68 on go1.24 (132 while every interval search was a heap
	// object with a residual closure); the 10% margin absorbs runtime
	// differences between Go releases, not new per-connection heap traffic
	// (400 connections).
	if allocs > 75 && !analysis.RaceBuild() {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass, ceiling is 75", allocs)
	}
}

// TestFabricAllocs is the same pair of facts for the allocation-free
// overhaul on the fat-tree fabric: at k=8 (512 link servers, 640 flows) the
// oracle's bounds; at k=16 (4,096 link servers, 12,800 flows — the fixture
// the benchmark's analysis.ft16_int_ms times) the oracle's bounds and the
// allocation and byte ceilings, skipped under -short for the oracle's share of the
// test budget. BenchmarkFabricAnalyze covers the full ~10k-switch scale.
func TestFabricAllocs(t *testing.T) {
	small := analysis.FabricNet(t, 8, 20)
	res, err := analysis.Integrated{}.Analyze(small)
	if err != nil {
		t.Fatal(err)
	}
	checkStagedClose(t, "fat-tree k=8", staged{res, analysis.StagesOf(t, analysis.Integrated{}, small)}, oracleIntegrated(small, 2))
	if testing.Short() {
		t.Skip("k=16 runs the oracle on 4,096 servers")
	}
	net := analysis.FabricNet(t, 16, 100)
	res, allocs, bytes := analysis.AnalyzeAllocs(t, analysis.Integrated{}, net)
	checkStagedClose(t, "fat-tree k=16", staged{res, analysis.StagesOf(t, analysis.Integrated{}, net)}, oracleIntegrated(net, 2))
	t.Logf("%.0f allocs/pass, %d bytes/pass", allocs, bytes)
	// Measured 135 on go1.24 (12,800 flows: about one per hundred flows;
	// 2189 while each of the 1,026 interval searches was a heap object with
	// a residual closure); the ceiling leaves 10%.
	if allocs > 149 && !analysis.RaceBuild() {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass, ceiling is 149", allocs)
	}
	// The pass keeps no per-stage breakdown (Baseline.Stages builds it on
	// demand), so it allocates its bounds, backlogs and propagation but no
	// stage list. Measured 4,836,472 bytes on go1.24 (5,246,872 while every
	// interval search was a heap object with a residual closure, 6,991,832
	// while every pass also built the stage lists); the ceiling leaves 10%.
	if bytes > 5_320_120 && !analysis.RaceBuild() {
		t.Errorf("Integrated.Analyze allocates %d bytes per pass, ceiling is 5,320,120", bytes)
	}
}

// TestOracleMatchesClosedForms anchors the oracle on delays derived by hand,
// without the curve algebra (closedform_test.go): k fresh sources at one server —
// unbounded when they overload it — and the first two hops of the paper's
// tandem.
func TestOracleMatchesClosedForms(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, want) }
	for _, k := range []int{2, 3, 4} {
		for _, rho := range []float64{0.05, 0.1, 0.2, 0.5} {
			net := analysis.SingleServerNet(k, 1.5, rho, 1)
			want := analysis.SingleFIFOFreshDelay(k, 1.5, rho, 1)
			if float64(k)*rho >= 1 {
				want = math.Inf(1)
			}
			for algo, res := range map[string]staged{"decomposed": oracleDecomposed(net), "integrated": oracleIntegrated(net, 2)} {
				if got := res.Bounds[0]; got != want && !near(got, want) {
					t.Errorf("%d fresh sources of rate %g, %s: oracle %v, closed form %v", k, rho, algo, got, want)
				}
			}
		}
	}
	for _, u := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		net, err := topo.PaperTandem(5, u)
		if err != nil {
			t.Fatal(err)
		}
		stages := oracleDecomposed(net).Stages[0]
		if got, want := stages[0].Delay, analysis.TandemFirstHopDelay(1, u/4, 1); !near(got, want) {
			t.Errorf("U=%g: first hop: oracle %v, closed form %v", u, got, want)
		}
		if got, want := stages[1].Delay, analysis.TandemSecondHopDelay(1, u/4, 1); !near(got, want) {
			t.Errorf("U=%g: second hop: oracle %v, closed form %v", u, got, want)
		}
	}
}

// TestOracleHoldsAgainstSimulator anchors the oracle's soundness: no packet
// of a simulation waits longer than the oracle's bound, for pairs and for
// whole-tandem chains. The inputs are the paper's tandem at 2, 3 and 4 hops
// under greedy sources, and the falsifier's burstycross2 (a unit-rate FIFO
// pair, through connection A = (1, 0.1), one uncapped (5, 0.1) cross burst
// per server) with its second cross burst released when A's first-hop
// delay has passed — the trial on which a residual that dropped the delayed
// cross burst bounded A at 10.0 and the simulator delivered at 10.91.
// The shipped Integrated analysis is held to the same simulations. Every
// network of the differential corpus is simulated too, and held to the
// engine's and the oracle's chains of three and four: the configuration
// whose skipped hops the greedy simulation once exceeded (TestLongChainLedger).
func TestOracleHoldsAgainstSimulator(t *testing.T) {
	type input struct {
		name   string
		net    *topo.Network
		cfg    sim.Config
		chains int // the whole tandem's length
	}
	var inputs []input
	for _, n := range []int{2, 3, 4} {
		for _, u := range []float64{0.3, 0.6, 0.9} {
			net, err := topo.PaperTandem(n, u)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("n=%d U=%g", n, u), net, sim.Config{PacketSize: 0.02, Horizon: sim.WorstCaseHorizon(net)}, n})
		}
	}
	matrix, err := falsify.DefaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	bursty := falsify.FilterMatrix(matrix, "burstycross2")[0].Net
	inputs = append(inputs, input{"burstycross2", bursty, sim.Config{PacketSize: 0.01, Horizon: 40,
		Adversary: &sim.Adversary{Controls: []sim.SourceControl{{}, {}, {Phase: 6}}}}, 2})
	for _, in := range inputs {
		run, err := sim.Run(in.net, in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := analysis.Integrated{}.Analyze(in.net)
		if err != nil {
			t.Fatal(err)
		}
		for algo, res := range map[string]*analysis.Result{
			"decomposed": oracleDecomposed(in.net).Result, "pairs": oracleIntegrated(in.net, 2).Result,
			"whole tandem": oracleIntegrated(in.net, in.chains).Result, "Integrated": engine,
		} {
			holds(t, in.name+" "+algo, in.net, run, in.cfg.PacketSize, res)
		}
	}
	for _, cr := range differentialRuns(t) {
		cfg := sim.Config{PacketSize: 0.02, Horizon: sim.WorstCaseHorizon(cr.net)}
		run, err := sim.Run(cr.net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, chainLen := range []int{3, 4} {
			holds(t, fmt.Sprintf("%s chains of %d: Integrated", cr.name, chainLen), cr.net, run, cfg.PacketSize, cr.engine[chainLen].Result)
			holds(t, fmt.Sprintf("%s chains of %d: the oracle", cr.name, chainLen), cr.net, run, cfg.PacketSize, cr.oracle[chainLen].Result)
		}
	}
}

// holds reports every connection of a simulation run whose largest delay
// exceeds its bound in res by more than the packet quantization slack.
func holds(t *testing.T, label string, net *topo.Network, run *sim.Result, packet float64, res *analysis.Result) {
	t.Helper()
	for c := range net.Connections {
		if seen, slack := run.Stats[c].MaxDelay, sim.QuantizationSlack(net, c, packet); seen > res.Bounds[c]+slack {
			t.Errorf("%s conn %d: simulated %v exceeds the bound %v (+slack %v)", label, c, seen, res.Bounds[c], slack)
		}
	}
}

// TestLongChainLedger closes the books of the long-chain finding: from three
// servers a chain on, Integrated once exceeded Decomposed on four bounds of
// the differential corpus, and 10 / 21 connections at chains of three / four
// had stages that were not their route. A chain could hold two servers of a
// route without the one between them (the route 0 -> 2 past a chain 0, 1,
// 2): the run stopped at the gap, the hop after it was never analyzed, and
// the next chain on the route grouped the connection at a server it might
// never visit — bounds the greedy packet simulation exceeded. The partition
// now refuses an extension that a route would skip, so at every chain
// length, for the engine and the oracle alike, no bound is above
// Decomposed's and every connection's stages cover exactly its route, each
// server once and in order.
func TestLongChainLedger(t *testing.T) {
	for _, run := range differentialRuns(t) {
		for chainLen := 1; chainLen <= 4; chainLen++ {
			for who, results := range map[string]map[int]staged{"Integrated": run.engine, "the oracle": run.oracle} {
				res, dec := results[chainLen], results[0]
				for c, conn := range run.net.Connections {
					if excess := res.Bounds[c] - dec.Bounds[c]; excess > 1e-9 {
						t.Errorf("%s, chains of %d, %s: conn %d bound %v exceeds Decomposed's %v", run.name, chainLen, who, c, res.Bounds[c], dec.Bounds[c])
					}
					var crossed []int
					for _, st := range res.Stages[c] {
						crossed = append(crossed, st.Servers...)
					}
					if !slices.Equal(crossed, conn.Path) {
						t.Errorf("%s, chains of %d, %s: conn %d crosses %v, its route is %v", run.name, chainLen, who, c, crossed, conn.Path)
					}
				}
			}
		}
	}
}
