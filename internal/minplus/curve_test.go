package minplus

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewSortsAndNormalizes(t *testing.T) {
	c := New([]Point{{2, 4}, {0, 0}, {1, 2}}, 2)
	// All three points are collinear with the final slope: a single point
	// should remain.
	if got := c.NumPoints(); got != 1 {
		t.Fatalf("NumPoints = %d, want 1 (collinear merge), curve %v", got, c)
	}
	if c.FinalSlope() != 2 {
		t.Fatalf("FinalSlope = %g, want 2", c.FinalSlope())
	}
}

func TestNewKeepsJumps(t *testing.T) {
	c := New([]Point{{0, 0}, {0, 5}}, 1)
	if c.NumPoints() != 2 {
		t.Fatalf("NumPoints = %d, want 2 (jump preserved)", c.NumPoints())
	}
	if got := c.Eval(0); got != 0 {
		t.Errorf("Eval(0) = %g, want 0 (left-continuous)", got)
	}
	if got := c.EvalRight(0); got != 5 {
		t.Errorf("EvalRight(0) = %g, want 5", got)
	}
}

func TestNewCollapsesTripleJump(t *testing.T) {
	c := New([]Point{{0, 0}, {0, 3}, {0, 1}}, 1)
	if c.NumPoints() != 2 {
		t.Fatalf("NumPoints = %d, want 2", c.NumPoints())
	}
	if got := c.EvalRight(0); got != 3 {
		t.Errorf("EvalRight(0) = %g, want 3 (max of run)", got)
	}
}

func TestNewPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty", func() { New(nil, 0) }},
		{"first not at zero", func() { New([]Point{{1, 0}}, 0) }},
		{"NaN Y", func() { New([]Point{{0, math.NaN()}}, 0) }},
		{"Inf slope", func() { New([]Point{{0, 0}}, math.Inf(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestEvalInteriorAndTail(t *testing.T) {
	// f: 0 at 0, rises at slope 2 to (3,6), then slope 0.5.
	f := New([]Point{{0, 0}, {3, 6}}, 0.5)
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {1, 2}, {3, 6}, {5, 7},
	}
	for _, tc := range cases {
		if got := f.Eval(tc.x); !almostEqual(got, tc.want) {
			t.Errorf("Eval(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestEvalAroundJump(t *testing.T) {
	// Step of height 4 at x=2.
	f := Step(4, 2)
	if got := f.Eval(2); got != 0 {
		t.Errorf("Eval(2) = %g, want 0 (left limit at jump)", got)
	}
	if got := f.EvalRight(2); got != 4 {
		t.Errorf("EvalRight(2) = %g, want 4", got)
	}
	if got := f.Eval(2.5); got != 4 {
		t.Errorf("Eval(2.5) = %g, want 4", got)
	}
	if got := f.Eval(1.999); got != 0 {
		t.Errorf("Eval(1.999) = %g, want 0", got)
	}
}

func TestIsNonDecreasing(t *testing.T) {
	if !TokenBucket(2, 1).IsNonDecreasing() {
		t.Error("token bucket should be non-decreasing")
	}
	dec := New([]Point{{0, 5}, {1, 3}}, 0)
	if dec.IsNonDecreasing() {
		t.Error("decreasing curve misreported as non-decreasing")
	}
	negSlope := New([]Point{{0, 0}}, -1)
	if negSlope.IsNonDecreasing() {
		t.Error("negative final slope misreported as non-decreasing")
	}
}

func TestIsContinuous(t *testing.T) {
	if !TokenBucketCapped(2, 0.5, 1).IsContinuous() {
		t.Error("capped token bucket should be continuous")
	}
	if TokenBucket(2, 1).IsContinuous() {
		t.Error("token bucket has a jump at 0 and is not continuous")
	}
}

func TestIsConcaveConvex(t *testing.T) {
	tb := TokenBucketCapped(3, 0.25, 1)
	if !tb.IsConcave() {
		t.Errorf("capped token bucket should be concave: %v", tb)
	}
	if tb.IsConvex() {
		t.Errorf("capped token bucket should not be convex: %v", tb)
	}
	rl := RateLatency(2, 1)
	if !rl.IsConvex() {
		t.Errorf("rate-latency should be convex: %v", rl)
	}
	if rl.IsConcave() {
		t.Errorf("rate-latency should not be concave: %v", rl)
	}
	if !Rate(1).IsConcave() || !Rate(1).IsConvex() {
		t.Error("a line should be both concave and convex")
	}
	// Pure token bucket: jump at 0 does not break concavity on (0, inf).
	if !TokenBucket(2, 1).IsConcave() {
		t.Error("token bucket should be concave on (0, inf)")
	}
	// An interior jump does break concavity.
	if Step(1, 2).IsConcave() {
		t.Error("interior step should not be concave")
	}
}

func TestEqual(t *testing.T) {
	a := TokenBucketCapped(2, 0.5, 1)
	b := New([]Point{{0, 0}, {4, 4}}, 0.5)
	if !a.Equal(b) {
		t.Errorf("curves should be equal: %v vs %v", a, b)
	}
	c := TokenBucketCapped(2, 0.6, 1)
	if a.Equal(c) {
		t.Errorf("curves should differ: %v vs %v", a, c)
	}
	if a.Equal(TokenBucket(2, 0.5)) {
		t.Error("capped and pure token buckets should differ near 0")
	}
}

func TestString(t *testing.T) {
	s := TokenBucket(2, 1).String()
	for _, want := range []string{"(0,0)", "(0,2)", "slope 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestZeroValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-value Curve")
		}
	}()
	var c Curve
	c.Eval(1)
}

func TestBuilders(t *testing.T) {
	if got := Zero().Eval(100); got != 0 {
		t.Errorf("Zero().Eval(100) = %g", got)
	}
	if got := Constant(7).Eval(3); got != 7 {
		t.Errorf("Constant(7).Eval(3) = %g", got)
	}
	if got := Affine(2, 1).Eval(3); got != 7 {
		t.Errorf("Affine(2,1).Eval(3) = %g", got)
	}
	if got := Identity().Eval(4.5); got != 4.5 {
		t.Errorf("Identity().Eval(4.5) = %g", got)
	}
	rl := RateLatency(3, 2)
	if got := rl.Eval(1); got != 0 {
		t.Errorf("RateLatency.Eval(1) = %g, want 0", got)
	}
	if got := rl.Eval(4); got != 6 {
		t.Errorf("RateLatency.Eval(4) = %g, want 6", got)
	}
	if got := RateLatency(3, 0).Eval(2); got != 6 {
		t.Errorf("RateLatency(3,0).Eval(2) = %g, want 6", got)
	}
}

func TestTokenBucketCapped(t *testing.T) {
	f := TokenBucketCapped(1, 0.25, 1)
	// Knee at sigma/(c-rho) = 1/0.75.
	knee := 1 / 0.75
	if got := f.Eval(knee / 2); !almostEqual(got, knee/2) {
		t.Errorf("below knee Eval = %g, want %g (line c*t)", got, knee/2)
	}
	if got := f.Eval(knee + 4); !almostEqual(got, 1+0.25*(knee+4)) {
		t.Errorf("above knee Eval = %g, want %g", got, 1+0.25*(knee+4))
	}
	if !f.IsContinuous() || !f.IsConcave() {
		t.Error("capped token bucket must be continuous and concave")
	}
	// rho == c collapses to the line.
	if !TokenBucketCapped(1, 1, 1).Equal(Rate(1)) {
		t.Error("TokenBucketCapped(1,1,1) should equal Rate(1)")
	}
	// sigma == 0 is the pure rate.
	if !TokenBucketCapped(0, 0.5, 1).Equal(Rate(0.5)) {
		t.Error("TokenBucketCapped(0,rho,c) should equal Rate(rho)")
	}
}

func TestDelayAndShiftLeft(t *testing.T) {
	f := TokenBucketCapped(2, 0.5, 1)
	d := Delay(f, 3)
	if got := d.Eval(2); got != 0 {
		t.Errorf("Delay.Eval(2) = %g, want 0", got)
	}
	if got, want := d.Eval(5), f.Eval(2); !almostEqual(got, want) {
		t.Errorf("Delay.Eval(5) = %g, want %g", got, want)
	}
	back := ShiftLeft(d, 3)
	if !back.Equal(f) {
		t.Errorf("ShiftLeft(Delay(f,3),3) = %v, want %v", back, f)
	}
	if !Delay(f, 0).Equal(f) || !ShiftLeft(f, 0).Equal(f) {
		t.Error("zero shifts must be identity")
	}
}

func TestShiftLeftAcrossJump(t *testing.T) {
	f := Step(4, 2)
	g := ShiftLeft(f, 2)
	// g(0) should keep the left value 0 and jump immediately.
	if got := g.Eval(0); got != 0 {
		t.Errorf("g.Eval(0) = %g, want 0", got)
	}
	if got := g.EvalRight(0); got != 4 {
		t.Errorf("g.EvalRight(0) = %g, want 4", got)
	}
}

func TestVShiftScale(t *testing.T) {
	f := TokenBucketCapped(2, 0.5, 1)
	up := VShift(f, 3)
	if got, want := up.Eval(1), f.Eval(1)+3; !almostEqual(got, want) {
		t.Errorf("VShift eval = %g, want %g", got, want)
	}
	sy := ScaleY(f, 2)
	if got, want := sy.Eval(5), 2*f.Eval(5); !almostEqual(got, want) {
		t.Errorf("ScaleY eval = %g, want %g", got, want)
	}
	sx := ScaleX(f, 2)
	if got, want := sx.Eval(8), f.Eval(4); !almostEqual(got, want) {
		t.Errorf("ScaleX eval = %g, want %g", got, want)
	}
	if !almostEqual(sx.FinalSlope(), f.FinalSlope()/2) {
		t.Errorf("ScaleX final slope = %g, want %g", sx.FinalSlope(), f.FinalSlope()/2)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"TokenBucket negative sigma", func() { TokenBucket(-1, 0) }},
		{"TokenBucketCapped rho>c", func() { TokenBucketCapped(1, 2, 1) }},
		{"RateLatency negative", func() { RateLatency(-1, 0) }},
		{"Rate negative", func() { Rate(-1) }},
		{"Delay negative", func() { Delay(Zero(), -1) }},
		{"ScaleY negative", func() { ScaleY(Zero(), -1) }},
		{"ScaleX zero", func() { ScaleX(Zero(), 0) }},
		{"Step negative", func() { Step(1, -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestAlmostEqualTruthTable pins almostEqual to the expression it replaced
// (diff <= Eps*math.Max(|a|, |b|)) on every kind of input: the kernels
// branch on it, so one differing answer would move bounds.
func TestAlmostEqualTruthTable(t *testing.T) {
	old := func(a, b float64) bool {
		diff := math.Abs(a - b)
		if diff <= Eps {
			return true
		}
		return diff <= Eps*math.Max(math.Abs(a), math.Abs(b))
	}
	negZero := math.Copysign(0, -1)
	vals := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308,
		Eps, -Eps, math.Nextafter(Eps, 0), math.Nextafter(Eps, 1), Eps / 2, 2 * Eps,
		1, -1, 1 + Eps, 1 - Eps, math.Nextafter(1+Eps, 2), math.Nextafter(1+Eps, 0),
		1e9, 1e9 + 1, 1e9 + 1 + 1e-7, 1e9 * (1 + Eps), math.Nextafter(1e9*(1+Eps), math.Inf(1)),
		-1e9, -1e9 - 1, 1e18, 1e18 + 1e9, 1e18 + 2e9,
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64 / 2,
	}
	check := func(a, b float64) {
		if got, want := almostEqual(a, b), old(a, b); got != want {
			t.Fatalf("almostEqual(%b, %b) = %v, the old expression says %v", a, b, got, want)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 200000; i++ {
		a := math.Float64frombits(rng.Uint64())
		check(a, math.Float64frombits(rng.Uint64()))
		// Near pairs, straddling the relative tolerance.
		rel := (rng.Float64()*4 - 2) * Eps
		check(a, a*(1+rel))
		check(a, math.Nextafter(a*(1+Eps), math.Inf(1)))
		check(a, math.Nextafter(a*(1+Eps), 0))
		// Small magnitudes, straddling the absolute tolerance.
		s := rng.Float64() * 4 * Eps
		check(s, -rng.Float64()*Eps)
		check(s, s+Eps)
	}
}

// TestAppendToPacksDetachedCopies packs arena-built and heap curves into one
// exact-size buffer: every copy keeps its curve's breakpoints and final
// slope bit for bit after the arena is rewound and overwritten, and each is
// capacity-clipped, so an append to one copy leaves the next one intact.
func TestAppendToPacksDetachedCopies(t *testing.T) {
	ar := GetArena()
	defer ar.Release()
	srcs := []Curve{
		ar.ShiftLeft(TokenBucketCapped(1, 0.5, 4), 0.3),
		TokenBucket(2, 0.1),
		ar.SumN(TokenBucket(1, 0.2), TokenBucketCapped(0.5, 0.1, 3)),
	}
	want := make([]Curve, len(srcs))
	n := 0
	for i, c := range srcs {
		want[i] = c.Clone()
		n += c.NumPoints()
	}
	buf := make([]Point, 0, n)
	copies := make([]Curve, len(srcs))
	for i, c := range srcs {
		buf, copies[i] = c.AppendTo(buf)
	}
	if len(buf) != n || cap(buf) != n {
		t.Fatalf("buffer has length %d and capacity %d, want %d", len(buf), cap(buf), n)
	}
	ar.Reset()
	for range 8 {
		ar.ShiftLeft(TokenBucketCapped(7, 0.9, 2), 0.05) // overwrite the rewound slabs
	}
	_ = append(copies[0].pts, Point{X: 99, Y: 99})
	for i, c := range copies {
		if cap(c.pts) != len(c.pts) {
			t.Errorf("copy %d: capacity %d past its %d points", i, cap(c.pts), len(c.pts))
		}
		if c.slope != want[i].slope || len(c.pts) != len(want[i].pts) {
			t.Fatalf("copy %d = %v, want %v", i, c, want[i])
		}
		for k := range c.pts {
			if c.pts[k] != want[i].pts[k] {
				t.Errorf("copy %d point %d = %v, want %v", i, k, c.pts[k], want[i].pts[k])
			}
		}
	}
}
