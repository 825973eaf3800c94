package minplus

import (
	"math/rand"
	"sort"
	"testing"
)

// genGatedConvex draws a random curve in gated-convex form: zero up to a
// gate, an optional jump, then a convex non-decreasing section.
func genGatedConvex(r *rand.Rand) GatedConvex {
	g := GatedConvex{}
	if r.Intn(2) == 0 {
		g.Gate = round3(r.Float64() * 4)
	}
	if r.Intn(2) == 0 {
		g.Jump = round3(r.Float64() * 3)
	}
	n := r.Intn(4)
	slopes := make([]float64, n)
	for i := range slopes {
		slopes[i] = round3(r.Float64() * 2)
	}
	sort.Float64s(slopes)
	last := 0.0
	for _, s := range slopes {
		g.Segs = append(g.Segs, SlopeSeg{Len: round3(0.25 + r.Float64()*2), Slope: s})
		last = s
	}
	g.Tail = last + round3(r.Float64()*2)
	return g
}

func TestGatedConvexRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		g := genGatedConvex(rng)
		f := g.Curve()
		dec, ok := DecomposeGatedConvex(f)
		if !ok {
			t.Fatalf("trial %d: decomposition failed for %v (from %+v)", trial, f, g)
		}
		if !dec.Curve().Equal(f) {
			t.Fatalf("trial %d: roundtrip mismatch\nf      %v\nrebuilt %v", trial, f, dec.Curve())
		}
	}
}

func TestDecomposeGatedConvexRejects(t *testing.T) {
	cases := []struct {
		name string
		c    Curve
	}{
		{"nonzero start", New([]Point{{0, 1}, {2, 3}}, 1)},
		{"interior jump", New([]Point{{0, 0}, {1, 1}, {1, 3}, {2, 4}}, 1)},
		{"concave section", New([]Point{{0, 0}, {1, 2}, {3, 3}}, 0.25)},
		{"decreasing tail", New([]Point{{0, 0}, {1, 1}}, 0.5)},
	}
	// The last case is convex (slope 1 then 0.5 decreasing): verify it is
	// rejected for non-convexity, not accepted.
	for _, tc := range cases {
		if _, ok := DecomposeGatedConvex(tc.c); ok {
			t.Errorf("%s: DecomposeGatedConvex accepted %v", tc.name, tc.c)
		}
	}
}

func TestConvolveGatedMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 150; trial++ {
		f := genGatedConvex(rng).Curve()
		g := genGatedConvex(rng).Curve()
		got := ConvolveGated(f, g)
		want := Convolve(f, g)
		if !got.Equal(want) {
			t.Fatalf("trial %d:\nf    %v\ng    %v\ngated   %v\ngeneric %v", trial, f, g, got, want)
		}
	}
}

// TestConvolveGatedFallback checks that non-gated-convex operands fall
// back to the generic convolution.
func TestConvolveGatedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 80; trial++ {
		f, g := genCurve(rng), genCurve(rng)
		got := ConvolveGated(f, g)
		want := Convolve(f, g)
		if !got.Equal(want) {
			t.Fatalf("trial %d:\nf    %v\ng    %v\ngated   %v\ngeneric %v", trial, f, g, got, want)
		}
	}
}

// TestDeviationFloorIsAFloor holds DeviationFloor at or below the
// deviation it bounds, as HorizontalDeviation computes it, bit for bit:
// unrounded gated-convex forms (against their ConvexPartCurve) and the
// residuals of Arena.Residual at random theta, decomposed (against the
// residual shifted by its gate, as the theta search strips it), each
// against random aggregates — jumps at 0, several breakpoints, final
// slopes below and above the form's tail — and against aggregates whose
// burst sits on one of the form's ordinates or within its tolerance
// (checkDeviationFloor). The floor must also be positive often enough to
// rule something out.
func TestDeviationFloorIsAFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ar := NewArena()
	checked, positive := 0, 0
	for trial := 0; trial < 2000; trial++ {
		ar.Reset()
		var g GatedConvex
		var chi Curve
		if trial%2 == 0 {
			g = GatedConvex{Jump: rng.Float64() * 3 * float64(rng.Intn(2))}
			slope := rng.Float64()
			for n := rng.Intn(4); n > 0; n-- {
				g.Segs = append(g.Segs, SlopeSeg{Len: 0.1 + 2*rng.Float64(), Slope: slope})
				slope += rng.Float64()
			}
			g.Tail = slope
			chi = ar.ConvexPartCurve(g)
		} else {
			capacity := 0.5 + 1.5*rng.Float64()
			beta := Rate(capacity)
			if rng.Intn(2) == 0 {
				beta = RateLatency(capacity, 2*rng.Float64())
			}
			cross := TokenBucket(3*rng.Float64(), capacity*(0.1+0.8*rng.Float64()))
			for n := rng.Intn(3); n > 0; n-- {
				cross = Min(cross, TokenBucket(cross.EvalRight(0)*(0.2+0.6*rng.Float64()), cross.FinalSlope()*(1.5+2*rng.Float64())))
			}
			res := ar.Residual(beta, cross, 4*rng.Float64()*float64(rng.Intn(2)))
			var ok bool
			if g, ok = ar.DecomposeGatedConvex(res); !ok {
				t.Fatalf("trial %d: residual %v is not gated-convex", trial, res)
			}
			chi = ar.ShiftLeft(res, g.Gate)
		}
		alphas := []Curve{
			genCurve(rng),
			TokenBucket(3*rng.Float64(), g.Tail*(0.2+rng.Float64())),
			Add(TokenBucketCapped(2*rng.Float64(), g.Tail*0.3*rng.Float64(), 1+rng.Float64()), TokenBucket(rng.Float64(), g.Tail*0.5*rng.Float64())),
		}
		for _, p := range chi.Points() {
			if p.Y > 0 {
				for _, rel := range []float64{0, 1e-12, 1e-10, 9e-10, -1e-10} {
					alphas = append(alphas, TokenBucket(p.Y*(1+rel), g.Tail*0.5))
				}
			}
		}
		for _, alpha := range alphas {
			if checkDeviationFloor(t, alpha, g, chi) > 0 {
				positive++
			}
			checked++
		}
	}
	t.Logf("floor positive on %d of %d pairs", positive, checked)
	if positive*4 < checked {
		t.Errorf("floor positive on %d of %d pairs: the test no longer exercises the bound", positive, checked)
	}
}

func BenchmarkConvolveGated(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	fs := make([]Curve, 16)
	for i := range fs {
		fs[i] = genGatedConvex(rng).Curve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveGated(fs[i%16], fs[(i+7)%16])
	}
}
