package minplus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// foldSum is the pre-SumN implementation of Sum: a pairwise left fold of
// Add starting from the zero curve. SumN must match it exactly.
func foldSum(curves ...Curve) Curve {
	total := Zero()
	for _, c := range curves {
		total = Add(total, c)
	}
	return total
}

func TestSumNMatchesPairwiseFold(t *testing.T) {
	prop := func(a, b, c, d curveBox) bool {
		curves := []Curve{a.C, b.C, c.C, d.C}
		got := SumN(curves...)
		want := foldSum(curves...)
		if !got.Equal(want) {
			t.Logf("SumN mismatch:\ngot  %v\nwant %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestSumNManyOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		curves := make([]Curve, n)
		for i := range curves {
			curves[i] = genCurve(rng)
		}
		got := SumN(curves...)
		want := foldSum(curves...)
		if !got.Equal(want) {
			t.Fatalf("trial %d (%d operands):\ngot  %v\nwant %v", trial, n, got, want)
		}
	}
}

func TestSumNEdgeCases(t *testing.T) {
	if !SumN().Equal(Zero()) {
		t.Errorf("SumN() = %v, want zero", SumN())
	}
	tb := TokenBucket(3, 0.5)
	if !SumN(tb).Equal(tb) {
		t.Errorf("SumN(tb) = %v, want %v", SumN(tb), tb)
	}
	// Token buckets hit the all-origin fast path.
	a, b := TokenBucket(1, 0.25), TokenBucket(2, 0.5)
	if got, want := SumN(a, b), Add(a, b); !got.Equal(want) {
		t.Errorf("SumN(tb, tb) = %v, want %v", got, want)
	}
	// Pure rates (no jump) through the fast path.
	if got, want := SumN(Rate(1), Rate(0.5)), Rate(1.5); !got.Equal(want) {
		t.Errorf("SumN(rates) = %v, want %v", got, want)
	}
}

func TestCursorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		c := genCurve(rng)
		cur := NewCursor(c)
		// Ascending sweep across and past every breakpoint, probing both
		// exact breakpoints and interior points.
		var xs []float64
		for _, x := range c.xBreaks() {
			xs = append(xs, x, x+0.01, x+0.13)
		}
		xs = append(xs, c.LastX()+5)
		for _, x := range xs {
			if got, want := cur.Eval(x), c.Eval(x); got != want {
				t.Fatalf("Cursor.Eval(%g) = %g, Curve.Eval = %g on %v", x, got, want, c)
			}
			if got, want := cur.EvalRight(x), c.EvalRight(x); got != want {
				t.Fatalf("Cursor.EvalRight(%g) = %g, Curve.EvalRight = %g on %v", x, got, want, c)
			}
		}
		// Non-monotone probes exercise the rewind path.
		for i := 0; i < 20; i++ {
			x := rng.Float64() * (c.LastX() + 2)
			if got, want := cur.Eval(x), c.Eval(x); got != want {
				t.Fatalf("rewound Cursor.Eval(%g) = %g, Curve.Eval = %g on %v", x, got, want, c)
			}
		}
	}
}

// sumNBuckets builds the ISSUE's gate workload: 200 token buckets with
// distinct parameters.
func sumNBuckets(n int) []Curve {
	out := make([]Curve, n)
	for i := range out {
		out[i] = TokenBucket(1+0.01*float64(i%13), 0.001*(1+float64(i%7)))
	}
	return out
}

// TestSumNAllocs holds the acceptance facts of the k-way merge without
// reading a clock: summing 200 token buckets with SumN gives the pairwise
// Add fold's curve in one allocation (the fold, logged beside it, makes
// five per operand). BenchmarkSumN / BenchmarkSumPairwiseFold are the wall-clock rows.
func TestSumNAllocs(t *testing.T) {
	curves := sumNBuckets(200)
	if !SumN(curves...).Equal(foldSum(curves...)) {
		t.Fatal("SumN disagrees with pairwise fold on the gate workload")
	}
	fastAllocs := testing.AllocsPerRun(10, func() { SumN(curves...) })
	slowAllocs := testing.AllocsPerRun(10, func() { foldSum(curves...) })
	t.Logf("allocs: SumN %.0f, pairwise fold %.0f", fastAllocs, slowAllocs)
	if fastAllocs > 1 {
		t.Errorf("SumN allocates %.0f times on 200 token buckets, ceiling is 1", fastAllocs)
	}
}

func BenchmarkSumN(b *testing.B) {
	curves := sumNBuckets(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumN(curves...)
	}
}

func BenchmarkSumPairwiseFold(b *testing.B) {
	curves := sumNBuckets(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldSum(curves...)
	}
}

func BenchmarkSumNMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	curves := make([]Curve, 64)
	for i := range curves {
		curves[i] = genCurve(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumN(curves...)
	}
}

// BenchmarkSumNRepeated is an aggregate of many connections on a few
// envelopes: 200 operands, 3 distinct non-affine curves repeated by
// storage, which SumN sweeps once each. BenchmarkSumNMixed is the
// all-distinct control.
func BenchmarkSumNRepeated(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	distinct := []Curve{genCurve(rng), genCurve(rng), genCurve(rng)}
	curves := make([]Curve, 200)
	for i := range curves {
		curves[i] = distinct[i%len(distinct)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumN(curves...)
	}
}
