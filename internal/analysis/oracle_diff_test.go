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
// chain: Integrated's ChainLength 1-4, and 0 for Decomposed.
type corpusRun struct {
	name           string
	net            *topo.Network
	engine, oracle map[int]*analysis.Result
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
			run := corpusRun{name, net, map[int]*analysis.Result{}, map[int]*analysis.Result{}}
			for chainLen := 0; chainLen <= 4; chainLen++ {
				var a analysis.Analyzer = analysis.Decomposed{}
				run.oracle[chainLen] = oracleDecomposed(net)
				if chainLen > 0 {
					a = analysis.Integrated{ChainLength: chainLen}
					run.oracle[chainLen] = oracleIntegrated(net, chainLen)
				}
				var err error
				if run.engine[chainLen], err = a.Analyze(net); err != nil {
					t.Fatalf("%s/%+v: %v", name, a, err)
				}
			}
			corpusRuns = append(corpusRuns, run)
		}
		sort.Slice(corpusRuns, func(i, j int) bool { return corpusRuns[i].name < corpusRuns[j].name })
	})
	return corpusRuns
}

// TestCurveEngineMatchesReference holds Decomposed and every ChainLength
// configuration of Integrated to the oracle on the randomized corpus: 30
// networks, 5 configurations each.
func TestCurveEngineMatchesReference(t *testing.T) {
	for _, run := range differentialRuns(t) {
		for chainLen, got := range run.engine {
			analysis.CheckResultsClose(t, fmt.Sprintf("%s/chains of %d", run.name, chainLen), got, run.oracle[chainLen])
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
	res, allocs := analysis.AnalyzeAllocs(t, analysis.Integrated{}, net)
	analysis.CheckResultsClose(t, "tandem64x400", res, oracleIntegrated(net, 2))
	t.Logf("%.0f allocs/pass", allocs)
	// Measured 409 on go1.24; the 10% margin absorbs runtime differences
	// between Go releases, not new per-connection heap traffic (400
	// connections).
	if allocs > 450 && !analysis.RaceBuild() {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass, ceiling is 450", allocs)
	}
}

// TestFabricAllocs is the same pair of facts for the allocation-free
// overhaul on the fat-tree fabric: at k=8 (512 link servers, 640 flows) the
// oracle's bounds; at k=16 (4,096 link servers, 12,800 flows — the fixture
// the benchmark's analysis.ft16_int_ms times) the oracle's bounds and the
// allocation ceiling, skipped under -short for the oracle's share of the
// test budget. BenchmarkFabricAnalyze covers the full ~10k-switch scale.
func TestFabricAllocs(t *testing.T) {
	small := analysis.FabricNet(t, 8, 20)
	res, err := analysis.Integrated{}.Analyze(small)
	if err != nil {
		t.Fatal(err)
	}
	analysis.CheckResultsClose(t, "fat-tree k=8", res, oracleIntegrated(small, 2))
	if testing.Short() {
		t.Skip("k=16 runs the oracle on 4,096 servers")
	}
	net := analysis.FabricNet(t, 16, 100)
	res, allocs := analysis.AnalyzeAllocs(t, analysis.Integrated{}, net)
	analysis.CheckResultsClose(t, "fat-tree k=16", res, oracleIntegrated(net, 2))
	t.Logf("%.0f allocs/pass", allocs)
	// Measured 11747 on go1.24 (12,800 flows: under one per flow); the
	// ceiling leaves 10%.
	if allocs > 12922 && !analysis.RaceBuild() {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass, ceiling is 12922", allocs)
	}
}

// TestOracleMatchesClosedForms anchors the oracle on delays derived by hand,
// without the curve algebra (closedform.go): k fresh sources at one server —
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
			for algo, res := range map[string]*analysis.Result{"decomposed": oracleDecomposed(net), "integrated": oracleIntegrated(net, 2)} {
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
// The shipped Integrated analysis is held to the same simulations.
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
			"decomposed": oracleDecomposed(in.net), "pairs": oracleIntegrated(in.net, 2),
			"whole tandem": oracleIntegrated(in.net, in.chains), "Integrated": engine,
		} {
			for c := range in.net.Connections {
				if seen, slack := run.Stats[c].MaxDelay, sim.QuantizationSlack(in.net, c, in.cfg.PacketSize); seen > res.Bounds[c]+slack {
					t.Errorf("%s %s conn %d: simulated %v exceeds the bound %v (+slack %v)", in.name, algo, c, seen, res.Bounds[c], slack)
				}
			}
		}
	}
}

// TestLongChainLedger keeps the books of ROADMAP item 5's open finding, "the
// FIFO twin": from three servers a chain on, Integrated can exceed Decomposed.
// Each entry is one such bound on the differential corpus, and the oracle
// exceeds on exactly the same ones by the same amount — the slack is the
// algorithm's, not an optimisation's. Where it comes from: a chain of three
// or more can hold two servers of a route without the one between them (the
// route 0 -> 2 past a chain 0, 1, 2); the connection's run stops at the gap,
// the hop after it is never analyzed — not charged to the connection, not
// counted in that server's aggregate — and the next chain on the route finds
// a next hop that is not its own and groups the connection at its position 0,
// a server the connection may never visit, whose other traffic then pays for
// it. dropped counts, per chain length, the connections whose stages are not
// their route. Those bounds, and their bystanders' at the skipped server,
// are not sound: when this ledger was opened the greedy packet simulation
// exceeded 2 bounds of the corpus at chains of three and 11 at four, none at
// pairs — long chains stay an experiment. Item 5's fix shows up here as both
// lists shrinking to nothing; single servers and pairs, what every serving
// path runs, must stay at none.
func TestLongChainLedger(t *testing.T) {
	type entry struct {
		network        string
		chainLen, conn int
		excess         float64 // Integrated's bound minus Decomposed's
	}
	ledger := []entry{
		{"ff6x9-seed12", 4, 7, 0.31222538147},
		{"ff6x9-seed13", 3, 4, 0.867776816609},
		{"ff6x9-seed13", 4, 4, 0.867776816609},
		{"ff6x9-seed22", 4, 5, 0.694222222222},
	}
	dropped := map[int]int{1: 0, 2: 0, 3: 10, 4: 21}

	var engine, oracle []entry
	engineDropped, oracleDropped := map[int]int{}, map[int]int{}
	tally := func(run corpusRun, chainLen int, results map[int]*analysis.Result, above *[]entry, short map[int]int) {
		res, dec := results[chainLen], results[0]
		for c, conn := range run.net.Connections {
			if excess := res.Bounds[c] - dec.Bounds[c]; excess > 1e-9 {
				*above = append(*above, entry{run.name, chainLen, c, excess})
			}
			var crossed []int
			for _, st := range res.Stages[c] {
				crossed = append(crossed, st.Servers...)
			}
			if !slices.Equal(crossed, conn.Path) {
				short[chainLen]++
			}
		}
	}
	for _, run := range differentialRuns(t) {
		for chainLen := 1; chainLen <= 4; chainLen++ {
			tally(run, chainLen, run.engine, &engine, engineDropped)
			tally(run, chainLen, run.oracle, &oracle, oracleDropped)
		}
	}
	for who, got := range map[string][]entry{"Integrated": engine, "the oracle": oracle} {
		if len(got) != len(ledger) {
			t.Errorf("%s exceeds Decomposed on %d bounds, the ledger has %d: %v", who, len(got), len(ledger), got)
			continue
		}
		for i, e := range got {
			if w := ledger[i]; e.network != w.network || e.chainLen != w.chainLen || e.conn != w.conn || math.Abs(e.excess-w.excess) > 1e-9 {
				t.Errorf("%s: entry %d is %v, the ledger has %v", who, i, e, w)
			}
		}
	}
	for chainLen, want := range dropped {
		if e, o := engineDropped[chainLen], oracleDropped[chainLen]; e != want || o != want {
			t.Errorf("chains of %d: %d routes not covered by Integrated's stages, %d by the oracle's, the ledger has %d", chainLen, e, o, want)
		}
	}
}
