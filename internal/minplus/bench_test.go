package minplus

import (
	"math/rand"
	"testing"
)

// benchCurves builds a deterministic set of moderately complex curves.
func benchCurves(n int) []Curve {
	rng := rand.New(rand.NewSource(7))
	out := make([]Curve, n)
	for i := range out {
		out[i] = genCurve(rng)
	}
	return out
}

func BenchmarkConvolve(b *testing.B) {
	cs := benchCurves(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Convolve(cs[i%16], cs[(i+7)%16])
	}
}

func BenchmarkDeconvolve(b *testing.B) {
	f := TokenBucketCapped(3, 0.25, 1)
	g := RateLatency(0.8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Deconvolve(f, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	cs := benchCurves(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(cs[i%16], cs[(i+5)%16])
	}
}

func BenchmarkMin(b *testing.B) {
	cs := benchCurves(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Min(cs[i%16], cs[(i+3)%16])
	}
}

// BenchmarkHorizontalDeviation measures the deviation kernel on the shapes
// the theta search feeds it: an aggregate envelope against a rate-latency
// curve, against a 3-point residual (what a fat-tree pass pays per
// candidate, where the fixed overhead of a call is the cost) and against a
// 40-point convex branch (where the walk over beta is).
func BenchmarkHorizontalDeviation(b *testing.B) {
	alpha := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucket(1, 0.1))
	beta3 := ZeroUntil(PositivePart(Sub(Rate(1), Delay(TokenBucket(0.5, 0.3), 1))), 1)
	pts := []Point{{0, 0}, {0, 0.25}}
	for i := 1; i < 39; i++ {
		x := 0.2 * float64(i)
		pts = append(pts, Point{x, 0.25 + 0.01*x*x})
	}
	beta40 := New(pts, 1)
	for _, bc := range []struct {
		name   string
		beta   Curve
		points int
	}{{"rate_latency", RateLatency(0.9, 1.5), 2}, {"beta3", beta3, 3}, {"beta40", beta40, 40}} {
		if n := bc.beta.NumPoints(); n != bc.points {
			b.Fatalf("%s has %d points, want %d", bc.name, n, bc.points)
		}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				HorizontalDeviation(alpha, bc.beta)
			}
		})
	}
}

func BenchmarkLowerInverse(b *testing.B) {
	f := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucketCapped(1, 0.2, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LowerInverse(f)
	}
}

func BenchmarkCompose(b *testing.B) {
	f := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucketCapped(1, 0.2, 1))
	g := Convolve(minRateCurve(), f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compose(f, g)
	}
}

func minRateCurve() Curve { return Rate(1) }

func BenchmarkEval(b *testing.B) {
	f := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucketCapped(1, 0.2, 1), TokenBucket(1, 0.05))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Eval(float64(i % 40))
	}
}
