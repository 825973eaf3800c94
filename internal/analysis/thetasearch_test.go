package analysis

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// pairScenario is one interval as runIntervalBound hands it to the theta
// search — two servers for the pair sweep, more for the coordinate descent:
// the aggregate's entry envelope, per position the service curve, the cross
// traffic and the theta candidates, and the latency the caller adds outside
// the deviation.
type pairScenario struct {
	agg   minplus.Curve
	beta  []minplus.Curve
	cross []minplus.Curve
	cands [][]float64
	lat   float64
}

// randomPairScenario draws a stable two-server scenario.
func randomPairScenario(rng *rand.Rand) pairScenario { return randomScenario(rng, 2) }

// randomScenario draws a stable k-server scenario: token-bucket or
// multi-segment concave cross traffic, constant-rate (Integrated) or
// rate-latency (static-priority Integrated) service, with or without server latency.
func randomScenario(rng *rand.Rand, k int) pairScenario {
	sc := pairScenario{beta: make([]minplus.Curve, k), cross: make([]minplus.Curve, k), cands: make([][]float64, k)}
	aggRho := 0.05 + 0.25*rng.Float64()
	sc.agg = minplus.TokenBucketCapped(0.2+2*rng.Float64(), aggRho, 1+rng.Float64())
	for i := 0; i < k; i++ {
		capacity := 0.8 + 1.2*rng.Float64()
		sc.beta[i] = minplus.Rate(capacity)
		rate := capacity
		switch rng.Intn(3) {
		case 0: // a priority class's leftover
			rate *= 0.7 + 0.3*rng.Float64()
			sc.beta[i] = minplus.RateLatency(rate, 2*rng.Float64())
		case 1:
			sc.lat += rng.Float64()
		}
		cross := minplus.TokenBucket(0.1+3*rng.Float64(), (rate-aggRho)*(0.2+0.6*rng.Float64()))
		if rng.Intn(2) == 0 {
			// The min of token buckets of falling rate and rising burst:
			// concave, with one breakpoint per extra bucket.
			for j, n := 0, 1+rng.Intn(3); j < n; j++ {
				cross = minplus.Min(cross, minplus.TokenBucket(
					cross.EvalRight(0)*(0.2+0.6*rng.Float64()), cross.FinalSlope()*(1.5+2*rng.Float64())))
			}
		}
		sc.cross[i] = cross
		local := minplus.HorizontalDeviation(minplus.Add(sc.agg, cross), sc.beta[i])
		sc.cands[i] = thetaCandidatesArena(nil, capacity, cross, local)
	}
	return sc
}

// search builds the scenario's theta search on ar.
func (sc pairScenario) search(ctx context.Context, ar *minplus.Arena, ceil float64, tm *Timings) *thetaSearch {
	return &thetaSearch{
		ctx:   ctx,
		agg:   sc.agg,
		beta:  sc.beta,
		cross: sc.cross,
		cands: sc.cands,
		ar:    ar,
		lat:   sc.lat,
		ceil:  ceil,
		tm:    tm,
	}
}

// bruteForce evaluates the closed form on every pair, on the heap, and
// returns the minimum and the smallest free lower bound. It also puts the
// precondition of the rejected candidate-level pruning on record: a
// residual is zero up to its theta, so its gate is at least theta.
func (sc pairScenario) bruteForce(t *testing.T) (min, minLB float64) {
	t.Helper()
	if sc.agg.EvalRight(0) <= minplus.Eps && sc.agg.RightSlope(0) <= minplus.Eps {
		t.Fatal("scenario's aggregate does not rise immediately: the search would take the fallback")
	}
	type part struct {
		dec minplus.GatedConvex
		hd  float64
	}
	var parts [2][]part
	for i := 0; i < 2; i++ {
		for _, theta := range sc.cands[i] {
			res := residual(nil, sc.beta[i], sc.cross[i], theta)
			dec, ok := minplus.DecomposeGatedConvex(res)
			if !ok {
				t.Fatalf("residual at position %d, theta %v is not gated-convex: the search would take the fallback", i, theta)
			}
			if dec.Gate < theta {
				t.Fatalf("position %d: gate %v below theta %v", i, dec.Gate, theta)
			}
			hd := minplus.HorizontalDeviation(sc.agg, minplus.ShiftLeft(res, dec.Gate))
			parts[i] = append(parts[i], part{dec, hd})
		}
	}
	min, minLB = math.Inf(1), math.Inf(1)
	for _, a := range parts[0] {
		for _, b := range parts[1] {
			w := minplus.ConvolveConvexParts(a.dec, b.dec)
			hd := math.Max(math.Max(a.hd, b.hd), minplus.HorizontalDeviation(sc.agg, w))
			min = math.Min(min, a.dec.Gate+b.dec.Gate+hd)
			minLB = math.Min(minLB, a.dec.Gate+b.dec.Gate+math.Max(a.hd, b.hd))
		}
	}
	return min, minLB
}

// TestThetaSearchPrunesExactly holds the branch and bound to the
// exhaustive enumeration bit for bit: whatever the ceiling, the value the
// caller keeps — min(minimize() + lat, ceil) — is the one a loop over every
// pair yields.
func TestThetaSearchPrunesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ar := minplus.GetArena()
	defer ar.Release()
	var pairs, evaluated, unceiled, candidates, deviations int64
	for n := 0; n < 150; n++ {
		sc := randomPairScenario(rng)
		min, minLB := sc.bruteForce(t)
		if math.IsInf(min, 1) {
			t.Fatalf("scenario %d: stable scenario without a finite bound", n)
		}
		full := min + sc.lat
		ceils := []float64{
			math.Inf(1),
			2 * full, math.Nextafter(full, math.Inf(1)), // above the minimum
			full,
			math.Nextafter(full, 0), (minLB + sc.lat + full) / 2, // between the smallest lb and the minimum
			minLB + sc.lat, (minLB + sc.lat) / 2, 0, // nothing left to evaluate
		}
		for _, ceil := range ceils {
			ar.Reset()
			_, tm := WithTimings(context.Background())
			got := math.Min(sc.search(context.Background(), ar, ceil, tm).minimize()+sc.lat, ceil)
			if want := math.Min(full, ceil); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scenario %d, ceiling %v: pruned search keeps %v, every pair %v", n, ceil, got, want)
			}
			p, e := tm.ThetaPairs.Load(), tm.ThetaEvaluated.Load()
			if want := int64(len(sc.cands[0]) * len(sc.cands[1])); p != want {
				t.Fatalf("scenario %d: ThetaPairs %d, grid has %d", n, p, want)
			}
			if ceil <= minLB+sc.lat && e != 0 {
				t.Fatalf("scenario %d, ceiling %v at or below every lower bound (%v): %d pairs evaluated", n, ceil, minLB+sc.lat, e)
			}
			if math.IsInf(ceil, 1) {
				unceiled += e
			}
			pairs, evaluated = pairs+p, evaluated+e
			candidates, deviations = candidates+tm.thetaCandidates.Load(), deviations+tm.thetaDeviations.Load()
		}
	}
	t.Logf("%d of %d pairs evaluated (%d by the 150 searches without a ceiling)", evaluated, pairs, unceiled)
	if evaluated == 0 || evaluated*2 > pairs {
		t.Errorf("%d of %d pairs evaluated: the test no longer exercises both outcomes", evaluated, pairs)
	}
	// The floors rule candidates out before their deviation is computed.
	t.Logf("%d of %d candidates' deviations computed", deviations, candidates)
	if deviations >= candidates {
		t.Errorf("%d of %d candidates' deviations computed: the floor rules none out", deviations, candidates)
	}
}

// TestThetaSearchEvaluatesFewPairs is the count gate: on the tandem and
// k=8 fabric fixtures the two-server searches evaluate at most one pair in
// twenty and compute at most one candidate's deviation in three (the
// tandem computes 27%, the fabric 16%), and exactly the same ones whatever
// the core count.
func TestThetaSearchEvaluatesFewPairs(t *testing.T) {
	for name, net := range map[string]*topo.Network{
		"tandem64x400": benchTandemNet(64, 400),
		"fabric8x20":   fabricNet(t, 8, 20),
	} {
		var counts [2][4]int64
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			ctx, tm := WithTimings(context.Background())
			_, err := Integrated{}.AnalyzeContext(ctx, net)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = [4]int64{tm.ThetaPairs.Load(), tm.ThetaEvaluated.Load(), tm.thetaCandidates.Load(), tm.thetaDeviations.Load()}
		}
		pairs, evaluated, candidates, deviations := counts[0][0], counts[0][1], counts[0][2], counts[0][3]
		t.Logf("%s: %d of %d pairs evaluated, %d of %d candidates' deviations computed", name, evaluated, pairs, deviations, candidates)
		if counts[1] != counts[0] {
			t.Errorf("%s: pairs/evaluated/candidates/deviations %v under GOMAXPROCS=1, %v under 2", name, counts[0], counts[1])
		}
		if evaluated == 0 || evaluated*20 > pairs {
			t.Errorf("%s: %d of %d pairs evaluated, want at most 1 in 20 (and some)", name, evaluated, pairs)
		}
		if deviations == 0 || deviations*3 > candidates {
			t.Errorf("%s: %d of %d candidates' deviations computed, want at most 1 in 3 (and some)", name, deviations, candidates)
		}
	}
}

// foldScan is the oracle of the coordinate descent's closed form, written
// out: every candidate vector is the left fold of generic convolutions and
// one deviation, nothing hoisted, nothing pruned.
func foldScan(ts *thetaSearch) scanFunc {
	return func(idx []int, i int, _ float64) func(*minplus.Arena, int) float64 {
		return func(_ *minplus.Arena, ci int) float64 {
			var beta minplus.Curve
			for j, cj := range idx {
				if j == i {
					cj = ci
				}
				if r := ts.residualAt(j, cj); j == 0 {
					beta = r
				} else {
					beta = minplus.Convolve(beta, r)
				}
			}
			return minplus.HorizontalDeviation(ts.agg, beta)
		}
	}
}

// allBranchesScan is the closed form with neither pruning: the maximum over
// all 2^k - 1 branches, each merged in the order closedFormScan merges it
// (zero-jump fixed coordinates, the other fixed ones, the candidate), so
// that a difference from the shipped value is the domination's doing, not
// the association's.
func allBranchesScan(ts *thetaSearch) scanFunc {
	return func(idx []int, i int, _ float64) func(*minplus.Arena, int) float64 {
		var order []int
		gates := 0.0
		for _, wantJump := range []bool{false, true} {
			for j := range idx {
				if p := ts.dec[ts.off[j]+idx[j]]; j != i && (p.Jump != 0) == wantJump {
					order = append(order, j)
				}
			}
		}
		for j := range idx {
			if j != i {
				gates += ts.dec[ts.off[j]+idx[j]].Gate
			}
		}
		order = append(order, i)
		return func(_ *minplus.Arena, ci int) float64 {
			var heap *minplus.Arena
			m := 0.0
			for set := 1; set < 1<<len(idx); set++ {
				var w minplus.GatedConvex
				hd, members := 0.0, 0
				for _, j := range order {
					if set&(1<<j) == 0 {
						continue
					}
					s := ts.off[j] + idx[j]
					if j == i {
						s = ts.off[i] + ci
					}
					if members++; members == 1 {
						w, hd = ts.dec[s], ts.hd[s]
					} else {
						w = heap.MergeConvexParts(w, ts.dec[s])
					}
				}
				if members > 1 {
					hd = minplus.HorizontalDeviation(ts.agg, heap.ConvexPartCurve(w))
				}
				m = math.Max(m, hd)
			}
			return gates + ts.dec[ts.off[i]+ci].Gate + m
		}
	}
}

// TestCoordinateDescentClosedForm is the law of the k > 2 search: over the
// seeded scenarios of TestThetaSearchPrunesExactly stretched to 3, 4 and 6
// servers, the shipped descent equals itself under GOMAXPROCS 1 and 2 and
// the descent with early exit disabled, bit for bit (a lower bound in place
// of a value never changes a comparison); and the descents on the closed
// form without zero-jump domination and on the written-out fold of generic
// convolutions take the same path to the same value within Eps.
func TestCoordinateDescentClosedForm(t *testing.T) {
	ar := minplus.GetArena()
	defer ar.Release()
	for _, k := range []int{3, 4, 6} {
		scenarios := 150
		if k == 6 && testing.Short() {
			scenarios = 30
		}
		rng := rand.New(rand.NewSource(25))
		scs := make([]pairScenario, scenarios)
		for n := range scs {
			scs[n] = randomScenario(rng, k)
		}
		var shipped [2][]float64
		var counts [2][2]int64
		for p, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			_, tm := WithTimings(context.Background())
			for _, sc := range scs {
				ar.Reset()
				shipped[p] = append(shipped[p], sc.search(context.Background(), ar, math.Inf(1), tm).minimize())
			}
			runtime.GOMAXPROCS(prev)
			counts[p] = [2]int64{tm.ThetaBranches.Load(), tm.ThetaBranchesCut.Load()}
		}
		if counts[0] != counts[1] {
			t.Errorf("k=%d: branches faced/cut %v under GOMAXPROCS=1, %v under 2", k, counts[0], counts[1])
		}
		if counts[0][1] == 0 || counts[0][1] >= counts[0][0] {
			t.Errorf("k=%d: %d of %d branches cut: the test no longer exercises both outcomes", k, counts[0][1], counts[0][0])
		}
		descend := func(sc pairScenario, scan func(*thetaSearch) scanFunc) float64 {
			ar.Reset()
			ts := sc.search(context.Background(), ar, math.Inf(1), nil)
			if !ts.decompose() {
				t.Fatalf("k=%d: scenario does not decompose: the search would take the fallback", k)
			}
			return ts.coordinateDescent(scan(ts))
		}
		bitDiffs := 0
		for n, sc := range scs {
			want := shipped[0][n]
			if math.IsInf(want, 1) {
				t.Fatalf("k=%d scenario %d: stable scenario without a finite bound", k, n)
			}
			if got := shipped[1][n]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("k=%d scenario %d: %v under GOMAXPROCS=2, %v under 1", k, n, got, want)
			}
			noExit := descend(sc, func(ts *thetaSearch) scanFunc {
				return func(idx []int, i int, _ float64) func(*minplus.Arena, int) float64 {
					return ts.closedFormScan(idx, i, math.Inf(1))
				}
			})
			if math.Float64bits(noExit) != math.Float64bits(want) {
				t.Errorf("k=%d scenario %d: %v without early exit, %v with", k, n, noExit, want)
			}
			all := descend(sc, allBranchesScan)
			if !boundsClose(all, want) {
				t.Errorf("k=%d scenario %d: %v over all branches, %v without the dominated ones", k, n, all, want)
			}
			if math.Float64bits(all) != math.Float64bits(want) {
				bitDiffs++
			}
			if fold := descend(sc, foldScan); !boundsClose(fold, want) {
				t.Errorf("k=%d scenario %d: closed form %v, fold of generic convolutions %v", k, n, want, fold)
			}
		}
		t.Logf("k=%d: %d scenarios, %d of %d branches cut, %d values differ in bits from the undominated closed form",
			k, scenarios, counts[0][1], counts[0][0], bitDiffs)
	}
}

// plainDescent is the reference of the k > 2 search: from the all-zero
// vector, up to three full passes over the coordinates, each scan
// evaluating every candidate but the incumbent's in full (no incumbent to
// exit early against) and moving to the first strict minimum below the
// incumbent; a pass that improves nothing ends it.
func plainDescent(ts *thetaSearch, scan scanFunc) float64 {
	k := len(ts.cands)
	idx := make([]int, k)
	wa := minplus.GetArena()
	defer wa.Release()
	best := scan(idx, k-1, math.Inf(1))(wa, 0)
	for pass := 0; pass < 3; pass++ {
		improved := false
		for i := range idx {
			eval, cur := scan(idx, i, math.Inf(1)), idx[i]
			for ci := range ts.cands[i] {
				if ci == cur {
					continue
				}
				wa.Reset()
				if d := eval(wa, ci); d < best {
					best, idx[i], improved = d, ci, true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// TestCoordinateDescentMatchesPlainDescent holds the shipped k > 2 search,
// which skips the incumbent's candidate, compares lower bounds against the
// scan's incumbent and stops once k scans in a row moved nothing, to the
// plain three-pass descent, bit for bit, under GOMAXPROCS 1 and 2, over
// the seeded scenarios of TestCoordinateDescentClosedForm.
func TestCoordinateDescentMatchesPlainDescent(t *testing.T) {
	ar := minplus.GetArena()
	defer ar.Release()
	for _, k := range []int{3, 4, 6} {
		rng := rand.New(rand.NewSource(25))
		scs := make([]pairScenario, 150)
		for n := range scs {
			scs[n] = randomScenario(rng, k)
		}
		want := make([]float64, len(scs))
		for n, sc := range scs {
			ar.Reset()
			ts := sc.search(context.Background(), ar, math.Inf(1), nil)
			scan := ts.genericScan
			if ts.decompose() {
				scan = ts.closedFormScan
			}
			want[n] = plainDescent(ts, scan)
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			for n, sc := range scs {
				ar.Reset()
				got := sc.search(context.Background(), ar, math.Inf(1), nil).minimize()
				if math.Float64bits(got) != math.Float64bits(want[n]) {
					t.Errorf("k=%d scenario %d, GOMAXPROCS=%d: search %v, plain descent %v", k, n, procs, got, want[n])
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestCoordinateDescentFallsBack forces the two ways out of the closed form
// — a residual that is not gated-convex, an aggregate that does not rise
// immediately — and holds the search to the descent on the written-out fold
// of generic convolutions (foldScan), no branch counted. A convex cross
// envelope makes the residuals of its position concave past their gate: the
// service curve less a curve whose slope rises.
func TestCoordinateDescentFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ar := minplus.GetArena()
	defer ar.Release()
	for _, k := range []int{3, 4} {
		for n := 0; n < 10; n++ {
			sc := randomScenario(rng, k)
			for name, force := range map[string]func(sc pairScenario) pairScenario{
				"convex cross": func(sc pairScenario) pairScenario {
					s := 0.5 * sc.beta[1].FinalSlope()
					convex := minplus.New([]minplus.Point{{X: 0, Y: 0}, {X: 50, Y: 5 * s}}, s)
					if _, ok := minplus.DecomposeGatedConvex(residual(nil, sc.beta[1], convex, 0)); ok {
						t.Fatal("the residual of the convex cross envelope decomposes")
					}
					sc.cross = slices.Clone(sc.cross)
					sc.cross[1] = convex
					return sc
				},
				"flat aggregate": func(sc pairScenario) pairScenario {
					sc.agg = minplus.Delay(sc.agg, 0.5)
					return sc
				},
			} {
				sc := force(sc)
				ar.Reset()
				_, tm := WithTimings(context.Background())
				got := sc.search(context.Background(), ar, math.Inf(1), tm).minimize()
				fold := sc.search(context.Background(), nil, math.Inf(1), nil)
				if fold.decompose() {
					t.Fatalf("k=%d scenario %d, %s: the closed form applies", k, n, name)
				}
				if want := fold.coordinateDescent(foldScan(fold)); !boundsClose(got, want) {
					t.Errorf("k=%d scenario %d, %s: search %v, fold of generic convolutions %v", k, n, name, got, want)
				}
				if b := tm.ThetaBranches.Load(); b != 0 {
					t.Errorf("k=%d scenario %d, %s: %d closed-form branches counted on the generic path", k, n, name, b)
				}
			}
		}
	}
}

// TestCoordinateDescentCutsBranches is the count gate of the k > 2 search:
// on the chain-4 benchmark fixture the two prunings skip most of the
// branches the closed form faces, and exactly the same ones whatever the
// core count.
func TestCoordinateDescentCutsBranches(t *testing.T) {
	net := benchTandemNet(32, 200)
	var counts [2][2]int64
	for i, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		ctx, tm := WithTimings(context.Background())
		_, err := Integrated{ChainLength: 4}.AnalyzeContext(ctx, net)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = [2]int64{tm.ThetaBranches.Load(), tm.ThetaBranchesCut.Load()}
	}
	faced, cut := counts[0][0], counts[0][1]
	t.Logf("%d of %d branches cut", cut, faced)
	if counts[1] != counts[0] {
		t.Errorf("branches faced/cut %v under GOMAXPROCS=1, %v under 2", counts[0], counts[1])
	}
	if cut >= faced || cut*2 < faced {
		t.Errorf("%d of %d branches cut, want at least half (and not all)", cut, faced)
	}
}
