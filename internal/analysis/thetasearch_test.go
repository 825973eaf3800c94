package analysis

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// pairScenario is one two-server interval as runIntervalBound hands it to
// the theta search: the aggregate's entry envelope, per position the
// service curve, the cross traffic and the theta candidates, and the
// latency the caller adds outside the deviation.
type pairScenario struct {
	agg   minplus.Curve
	beta  [2]minplus.Curve
	cross [2]minplus.Curve
	cands [][]float64
	lat   float64
}

// randomPairScenario draws a stable two-server scenario: token-bucket or
// multi-segment concave cross traffic, constant-rate (Integrated) or
// rate-latency (IntegratedSP) service, with or without server latency.
func randomPairScenario(rng *rand.Rand) pairScenario {
	var sc pairScenario
	aggRho := 0.05 + 0.25*rng.Float64()
	sc.agg = minplus.TokenBucketCapped(0.2+2*rng.Float64(), aggRho, 1+rng.Float64())
	sc.cands = make([][]float64, 2)
	for i := 0; i < 2; i++ {
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
		sc.cands[i] = thetaCandidates(capacity, cross, local)
	}
	return sc
}

// search builds the scenario's theta search on ar.
func (sc pairScenario) search(ctx context.Context, ar *minplus.Arena, ceil float64, tm *Timings) *thetaSearch {
	return &thetaSearch{
		ctx:   ctx,
		agg:   sc.agg,
		cands: sc.cands,
		ar:    ar,
		residual: func(i int, theta float64) minplus.Curve {
			return residual(ar, sc.beta[i], sc.cross[i], theta)
		},
		lat:  sc.lat,
		ceil: ceil,
		tm:   tm,
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
	var pairs, evaluated, unceiled int64
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
		}
	}
	t.Logf("%d of %d pairs evaluated (%d by the 150 searches without a ceiling)", evaluated, pairs, unceiled)
	if evaluated == 0 || evaluated*2 > pairs {
		t.Errorf("%d of %d pairs evaluated: the test no longer exercises both outcomes", evaluated, pairs)
	}
}

// TestThetaSearchEvaluatesFewPairs is the count gate: on the tandem and
// k=8 fabric fixtures the two-server searches evaluate at most one pair in
// twenty, and exactly the same pairs whatever the core count.
func TestThetaSearchEvaluatesFewPairs(t *testing.T) {
	for name, net := range map[string]*topo.Network{
		"tandem64x400": benchTandemNet(64, 400),
		"fabric8x20":   fabricNet(t, 8, 20),
	} {
		var counts [2][2]int64
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			ctx, tm := WithTimings(context.Background())
			_, err := Integrated{}.AnalyzeContext(ctx, net)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = [2]int64{tm.ThetaPairs.Load(), tm.ThetaEvaluated.Load()}
		}
		pairs, evaluated := counts[0][0], counts[0][1]
		t.Logf("%s: %d of %d pairs evaluated", name, evaluated, pairs)
		if counts[1] != counts[0] {
			t.Errorf("%s: pairs/evaluated %v under GOMAXPROCS=1, %v under 2", name, counts[0], counts[1])
		}
		if evaluated == 0 || evaluated*20 > pairs {
			t.Errorf("%s: %d of %d pairs evaluated, want at most 1 in 20 (and some)", name, evaluated, pairs)
		}
	}
}
