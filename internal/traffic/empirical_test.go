package traffic

import (
	"math"
	"testing"

	"delaycalc/internal/minplus"
)

func gopTrace() Trace {
	// 4 GOPs of 6 frames: I=8000, P=3000, B=1000 bits, 40 ms spacing.
	return SyntheticGOP(4, 6, 8000, 3000, 1000, 0.04)
}

func TestTraceValidate(t *testing.T) {
	if err := gopTrace().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Trace{
		{},
		{Frames: []float64{1}, Interval: 0},
		{Frames: []float64{-1}, Interval: 1},
		{Frames: []float64{math.NaN()}, Interval: 1},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTraceStatistics(t *testing.T) {
	tr := gopTrace()
	// Per GOP: I + P (frames 3) + 4 B = 8000 + 3000 + 4*1000 = 15000.
	if got, want := tr.TotalBits(), 4*15000.0; got != want {
		t.Errorf("total = %g, want %g", got, want)
	}
	if got := tr.PeakFrame(); got != 8000 {
		t.Errorf("peak = %g, want 8000", got)
	}
	if got, want := tr.MeanRate(), 4*15000.0/(24*0.04); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean rate = %g, want %g", got, want)
	}
}

func TestWindowSumsCyclic(t *testing.T) {
	// [9, 1, 1, 9]: the worst 2-window wraps around (9+9).
	tr := Trace{Frames: []float64{9, 1, 1, 9}, Interval: 1}
	sums := tr.WindowSums()
	want := []float64{9, 18, 19, 20}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("window sums = %v, want %v", sums, want)
		}
	}
}

func TestWindowSumsMonotone(t *testing.T) {
	sums := gopTrace().WindowSums()
	for i := 1; i < len(sums); i++ {
		if sums[i] < sums[i-1] {
			t.Fatalf("window sums not monotone at %d: %v", i, sums[:i+1])
		}
	}
}

func TestEnvelopeDominatesPeriodicWindows(t *testing.T) {
	tr := Trace{Frames: []float64{9, 1, 1, 9}, Interval: 1}
	env, err := tr.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	// Exact periodic window sums for windows up to 4 periods: a window of
	// q*n + r frames is q*Total + cyclic r-window.
	sums := tr.WindowSums()
	total := tr.TotalBits()
	n := len(tr.Frames)
	for k := 1; k <= 4*n; k++ {
		q, r := k/n, k%n
		exact := float64(q) * total
		if r > 0 {
			exact += sums[r-1]
		}
		// Frames arrive atomically at instants (k-1)*T .. so a window of
		// length just over (k-1)*T captures k frames; probe the envelope
		// just past that width.
		width := float64(k-1)*tr.Interval + 1e-9
		if got := env.EvalRight(width); got < exact-1e-6 {
			t.Errorf("k=%d frames: envelope(%g) = %g below exact %g", k, width, got, exact)
		}
	}
	if !concave(env) {
		t.Error("envelope should be concave")
	}
}

// concave reports whether c is concave on (0, inf): no jump after the
// origin and segment slopes, the final one included, non-increasing.
func concave(c minplus.Curve) bool {
	pts := c.Points()
	prev := math.Inf(1)
	for i := 1; i <= len(pts); i++ {
		s := c.FinalSlope()
		if i < len(pts) {
			dx := pts[i].X - pts[i-1].X
			if dx <= minplus.Eps {
				if pts[i-1].X > minplus.Eps {
					return false
				}
				continue
			}
			s = (pts[i].Y - pts[i-1].Y) / dx
		}
		if s > prev+minplus.Eps {
			return false
		}
		prev = s
	}
	return true
}

func TestEnvelopeTailIsMeanRate(t *testing.T) {
	tr := gopTrace()
	env, err := tr.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(env.FinalSlope()-tr.MeanRate()) > 1e-9 {
		t.Errorf("tail slope %g, want mean rate %g", env.FinalSlope(), tr.MeanRate())
	}
}

func TestFitTokenBucket(t *testing.T) {
	tr := gopTrace()
	tb, err := tr.FitTokenBucket(tr.MeanRate() * 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// The bucket must dominate every cyclic window.
	for k, s := range tr.WindowSums() {
		window := float64(k) * tr.Interval // k+1 frames span k intervals
		if tb.Sigma+tb.Rho*window < s-1e-9 {
			t.Errorf("bucket %v below window sum %g at k=%d", tb, s, k+1)
		}
	}
	if tb.Sigma < tr.PeakFrame() {
		t.Errorf("sigma %g below peak frame", tb.Sigma)
	}
	// Higher rate, smaller bucket.
	tb2, err := tr.FitTokenBucket(tr.MeanRate() * 2)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Sigma > tb.Sigma {
		t.Errorf("sigma did not shrink with rate: %g vs %g", tb2.Sigma, tb.Sigma)
	}
	if _, err := tr.FitTokenBucket(tr.MeanRate() * 0.5); err == nil {
		t.Error("expected error for rate below mean")
	}
}

func TestEnvelopeTighterThanFittedBucket(t *testing.T) {
	// The multi-segment envelope should be no larger than any fitted
	// token bucket anywhere (it is the hull of the exact windows).
	tr := gopTrace()
	env, err := tr.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tr.FitTokenBucket(tr.MeanRate() * 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 50; i++ {
		x := 3 * float64(i) / 50
		if env.EvalRight(x) > tb.Sigma+tb.Rho*x+1e-6 {
			t.Errorf("envelope %g above fitted bucket %g at %g",
				env.EvalRight(x), tb.Sigma+tb.Rho*x, x)
		}
	}
}

func TestSyntheticGOPStructure(t *testing.T) {
	tr := SyntheticGOP(2, 6, 8, 3, 1, 0.04)
	want := []float64{8, 1, 1, 3, 1, 1, 8, 1, 1, 3, 1, 1}
	if len(tr.Frames) != len(want) {
		t.Fatalf("frames = %v", tr.Frames)
	}
	for i := range want {
		if tr.Frames[i] != want[i] {
			t.Fatalf("frames = %v, want %v", tr.Frames, want)
		}
	}
}
