package analysis

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// boundsClose compares delay/backlog values with a tight relative
// tolerance. The engine reassociates floating-point sums (SumN merges k
// operands in one pass where the oracle folds pairwise), so last-ulp
// differences are legitimate; anything larger is a bug.
func boundsClose(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// checkResultsClose fails the test unless two results agree on every bound
// and backlog up to boundsClose.
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
	for s := range got.Backlogs {
		if !boundsClose(got.Backlogs[s], want.Backlogs[s]) {
			t.Errorf("%s: server %d backlog %v, reference %v", label, s, got.Backlogs[s], want.Backlogs[s])
		}
	}
}

// checkStagesClose fails the test unless two breakdowns agree on every
// stage delay up to boundsClose, and exactly on the servers every stage
// covers.
func checkStagesClose(t *testing.T, label string, got, want [][]Stage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stage lists, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Errorf("%s: conn %d has %d stages, reference %d", label, i, len(got[i]), len(want[i]))
			continue
		}
		for j := range got[i] {
			if !boundsClose(got[i][j].Delay, want[i][j].Delay) {
				t.Errorf("%s: conn %d stage %d delay %v, reference %v", label, i, j, got[i][j].Delay, want[i][j].Delay)
			}
			if !slices.Equal(got[i][j].Servers, want[i][j].Servers) {
				t.Errorf("%s: conn %d stage %d covers servers %v, reference %v", label, i, j, got[i][j].Servers, want[i][j].Servers)
			}
		}
	}
}

// stagesOf builds a's baseline of net and returns its per-stage breakdown,
// failing the test if the analysis does.
func stagesOf(t testing.TB, a Analyzer, net *topo.Network) [][]Stage {
	t.Helper()
	b, err := a.NewBaseline(net)
	if err != nil {
		t.Fatalf("%s baseline: %v", a.Name(), err)
	}
	return b.Stages()
}

// differentialCorpus returns the randomized networks the engine and the
// oracle (oracle_test.go) are compared on: small feedforward meshes across
// seeds plus the paper's tandem at several sizes and loads.
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

// TestParallelAnalyzeDeterministic checks that no result depends on the
// core count. Analyze and a Baseline build are the same driver on both
// sides of its one branch (pooled propagation, nothing recorded, against
// traced and recorded), so on one core and on two they must agree bit for
// bit for every analyzer, and every result must be the same on both core
// counts.
func TestParallelAnalyzeDeterministic(t *testing.T) {
	fifo := differentialCorpus(t)
	for seed := int64(100); seed < 126; seed++ {
		net, err := topo.RandomFeedforward(10, 16, 0.65, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fifo[fmt.Sprintf("ff10x16-seed%d", seed)] = net
	}
	fifo["forest"] = forestNet(8, 5)
	sp := spRandomCorpus(t)
	gr := map[string]*topo.Network{}
	for name, net := range fifo {
		gr[name] = grified(net)
	}
	oneCore := map[string]*Result{}
	oneCoreStages := map[string][][]Stage{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			a    Analyzer
			nets map[string]*topo.Network
		}{
			{Decomposed{}, fifo},
			{Integrated{}, fifo},
			{Integrated{}, sp},
			{ServiceCurve{}, fifo},
			{GuaranteedRateNetworkCurve{}, gr},
		} {
			for name, net := range tc.nets {
				key := fmt.Sprintf("%s%+v/%s", tc.a.Name(), tc.a, name)
				label := fmt.Sprintf("GOMAXPROCS=%d/%s", procs, key)
				res, err := tc.a.Analyze(net)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				b, err := tc.a.NewBaseline(net)
				if err != nil {
					t.Fatalf("%s: baseline: %v", label, err)
				}
				requireSameResult(t, label+": Analyze vs NewBaseline", res, b.Result())
				if procs == 1 {
					oneCore[key], oneCoreStages[key] = res, b.Stages()
				} else {
					requireSameResult(t, label+": against one core", oneCore[key], res)
					requireSameStages(t, label+": stages against one core", oneCoreStages[key], b.Stages())
				}
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
	a := Integrated{}
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

// countdown is a soft budget that runs out after k checkpoint reads.
func countdown(k int) func() bool {
	var reads atomic.Int64
	return func() bool { return reads.Add(1) > int64(k) }
}

// lawCounts tallies the degradation law's comparisons: bounds below the
// undegraded analyzer's, bounds above Decomposed, and how many of the latter
// sit on a bound the undegraded analyzer already has above it.
type lawCounts struct{ comparisons, below, above, aboveAnyway int }

// checkLaw compares one result computed under a budget with the undegraded
// result and the decomposed one, per connection.
func (lc *lawCounts) checkLaw(got, exact, dec *Result) {
	for i, b := range got.Bounds {
		lc.comparisons++
		if b < exact.Bounds[i]-minplus.Eps {
			lc.below++
		}
		if b > dec.Bounds[i]+minplus.Eps {
			lc.above++
			if exact.Bounds[i] > dec.Bounds[i]+minplus.Eps {
				lc.aboveAnyway++
			}
		}
	}
}

// sweepExpiry runs analyze with a budget that expires after k = 0, 1, 2, ...
// checkpoint reads (every k when dense, thinning out geometrically
// otherwise) until a run no longer degrades, checking every result against
// the law; a run that did not degrade must be the exact result bit for bit.
// analyze must read the budget of the context it is given.
func (lc *lawCounts) sweepExpiry(t *testing.T, label string, dense bool, exact, dec *Result, analyze func(context.Context) (*Result, error)) {
	t.Helper()
	for k := 0; ; k++ {
		if !dense {
			k += k / 4
		}
		ctx := WithBudget(context.Background(), countdown(k))
		got, err := analyze(ctx)
		if err != nil {
			t.Fatalf("%s: budget of %d reads: %v", label, k, err)
		}
		lc.checkLaw(got, exact, dec)
		if !Degraded(ctx) {
			requireSameResult(t, fmt.Sprintf("%s: budget of %d reads, not degraded", label, k), exact, got)
			return
		}
	}
}

// TestDegradationLaw pins what a soft budget may do to a bound: expiring it
// at every checkpoint in turn, over both differential corpora, for full
// analyses and for an extension of a baseline, every connection's bound
// stays at or above the undegraded analyzer's (sound: the search only ever
// lowers a valid bound) and, at pairs — what every serving path runs — and
// for static priority, at or below the decomposed one. A budget that never
// expires changes nothing, a run that reports no degradation is the exact
// result, and a budget expired from the start (which runs no search at all)
// does not depend on the core count.
//
// At ChainLength 3 and 4 only the lower side is asserted and the upper one
// recorded: long FIFO chains can exceed Decomposed by themselves, with no
// budget at all (the FIFO twin of the static-priority finding, ROADMAP item
// 5), so the upper side is no law there and a degraded run above it is not
// degradation's doing — it merely has fewer searched bounds left to hide
// the excess behind.
func TestDegradationLaw(t *testing.T) {
	type variant struct {
		a      Analyzer
		corpus map[string]*topo.Network
		upper  bool // bound <= Decomposed is part of the law; swept densely
	}
	fifo, sp := differentialCorpus(t), spCorpus(t)
	variants := []variant{
		{Integrated{}, fifo, true},
		{Integrated{}, sp, true},
		{Integrated{ChainLength: 3}, fifo, false},
		{Integrated{ChainLength: 4}, fifo, false},
	}
	never := func() bool { return false }
	for _, v := range variants {
		var lc lawCounts
		for name, net := range v.corpus {
			label := fmt.Sprintf("%s/%+v", name, v.a)
			exact, err := v.a.Analyze(net)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			dec, err := Decomposed{}.Analyze(net)
			if err != nil {
				t.Fatalf("%s: decomposed: %v", label, err)
			}
			ctx := WithBudget(context.Background(), never)
			got, err := v.a.AnalyzeContext(ctx, net)
			if err != nil || Degraded(ctx) {
				t.Fatalf("%s: unexpired budget: err %v, degraded %v", label, err, Degraded(ctx))
			}
			requireSameResult(t, label+": unexpired budget", exact, got)

			lc.sweepExpiry(t, label, v.upper, exact, dec, func(ctx context.Context) (*Result, error) {
				return v.a.AnalyzeContext(ctx, net)
			})

			var expired [2]*Result
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				expired[i], err = v.a.AnalyzeContext(WithBudget(context.Background(), countdown(0)), net)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s: expired budget, GOMAXPROCS=%d: %v", label, procs, err)
				}
			}
			requireSameResult(t, label+": expired budget, GOMAXPROCS 1 vs 2", expired[0], expired[1])

			// The same sweep over one extension: the last connection joins
			// a baseline of the others.
			last := len(net.Connections) - 1
			base, err := v.a.NewBaseline(&topo.Network{Servers: net.Servers, Connections: net.Connections[:last]})
			if err != nil {
				t.Fatalf("%s: baseline: %v", label, err)
			}
			ext, err := base.ExtendContext(context.Background(), net.Connections[last])
			if err != nil {
				t.Fatalf("%s: extend: %v", label, err)
			}
			var swept *Extension // the sweep's last run: the one not degraded
			lc.sweepExpiry(t, label+"/extend", v.upper, ext.Result(), dec, func(ctx context.Context) (*Result, error) {
				var err error
				if swept, err = base.ExtendContext(ctx, net.Connections[last]); err != nil {
					return nil, err
				}
				return swept.Result(), nil
			})
			requireSameStages(t, label+"/extend: not degraded", ext.Promote().Stages(), swept.Promote().Stages())
		}
		t.Logf("%+v: %d comparisons, %d below the undegraded bound, %d above Decomposed (%d of them above it with no budget too)",
			v.a, lc.comparisons, lc.below, lc.above, lc.aboveAnyway)
		if lc.below != 0 || v.upper && lc.above != 0 {
			t.Errorf("%+v: degradation law broken: %d bounds below the undegraded analyzer, %d above Decomposed",
				v.a, lc.below, lc.above)
		}
	}
}

// TestExpiredBudgetRunsNoSearch pins the price of a pass that starts
// expired as a count: on the k=16 fat-tree it faces no theta pair at all.
func TestExpiredBudgetRunsNoSearch(t *testing.T) {
	ctx, tm := WithTimings(WithBudget(context.Background(), countdown(0)))
	if _, err := (Integrated{}).AnalyzeContext(ctx, fabricNet(t, 16, 20)); err != nil {
		t.Fatal(err)
	}
	if pairs := tm.ThetaPairs.Load(); pairs != 0 || !Degraded(ctx) {
		t.Fatalf("expired pass faced %d theta pairs (degraded %v), want none and degraded", pairs, Degraded(ctx))
	}
}
