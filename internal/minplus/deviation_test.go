package minplus

import (
	"math"
	"math/rand"
	"testing"
)

func TestSupDiffBasic(t *testing.T) {
	f := TokenBucket(4, 0.5)
	g := Rate(1)
	// sup of 4 + 0.5t - t attained just after 0: 4.
	if got := SupDiff(f, g); !almostEqual(got, 4) {
		t.Errorf("SupDiff = %g, want 4", got)
	}
}

func TestSupDiffInfinite(t *testing.T) {
	f := Rate(2)
	g := Rate(1)
	if got := SupDiff(f, g); !math.IsInf(got, 1) {
		t.Errorf("SupDiff = %g, want +Inf", got)
	}
}

func TestSupDiffAttainedInside(t *testing.T) {
	// f concave, g convex: max gap at an interior breakpoint.
	f := TokenBucketCapped(6, 0.25, 1) // knee at 8
	g := RateLatency(0.5, 2)
	// diff at knee t=8: 8 - 3 = ... f(8)=8, g(8)=3 -> 5; check exactness.
	got := SupDiff(f, g)
	brute := math.Inf(-1)
	for i := 0; i <= 5000; i++ {
		x := 40 * float64(i) / 5000
		if d := f.Eval(x) - g.Eval(x); d > brute {
			brute = d
		}
	}
	if math.Abs(got-brute) > 1e-3 {
		t.Errorf("SupDiff = %g, brute %g", got, brute)
	}
	if got < brute-1e-9 {
		t.Errorf("SupDiff %g below brute-force sup %g", got, brute)
	}
}

func TestVerticalDeviationBacklogBound(t *testing.T) {
	// Backlog bound of (sigma, rho) through beta_{R,T}: sigma + rho*T.
	alpha := TokenBucket(3, 0.5)
	beta := RateLatency(1, 4)
	want := 3 + 0.5*4
	if got := VerticalDeviation(alpha, beta); !almostEqual(got, want) {
		t.Errorf("backlog bound = %g, want %g", got, want)
	}
}

func TestHorizontalDeviationDelayBound(t *testing.T) {
	// Delay bound of (sigma, rho) through beta_{R,T}: T + sigma/R.
	alpha := TokenBucket(3, 0.5)
	beta := RateLatency(1, 4)
	want := 4 + 3.0/1
	if got := HorizontalDeviation(alpha, beta); !almostEqual(got, want) {
		t.Errorf("delay bound = %g, want %g", got, want)
	}
}

func TestHorizontalDeviationFIFOServer(t *testing.T) {
	// Aggregate of token buckets through a unit-rate line: the delay is
	// sup(G(t) - t) (vertical = horizontal against a unit-rate server).
	g := Sum(TokenBucketCapped(1, 0.2, 1), TokenBucketCapped(1, 0.2, 1), TokenBucketCapped(1, 0.2, 1))
	beta := Rate(1)
	h := HorizontalDeviation(g, beta)
	v := VerticalDeviation(g, beta)
	if !almostEqual(h, v) {
		t.Errorf("unit-rate server: horizontal %g != vertical %g", h, v)
	}
}

func TestHorizontalDeviationInfinite(t *testing.T) {
	alpha := TokenBucket(1, 2)
	beta := Rate(1)
	if got := HorizontalDeviation(alpha, beta); !math.IsInf(got, 1) {
		t.Errorf("unstable server delay = %g, want +Inf", got)
	}
}

func TestHorizontalDeviationBoundedService(t *testing.T) {
	beta := New([]Point{{0, 0}, {5, 5}}, 0) // serves at most 5
	small := New([]Point{{0, 0}, {1, 3}}, 0)
	if got := HorizontalDeviation(small, beta); math.IsInf(got, 1) {
		t.Error("bounded arrival below bounded service should have finite delay")
	}
	big := New([]Point{{0, 0}, {1, 9}}, 0)
	if got := HorizontalDeviation(big, beta); !math.IsInf(got, 1) {
		t.Errorf("arrival above service supremum: delay = %g, want +Inf", got)
	}
	growing := Rate(0.1)
	if got := HorizontalDeviation(growing, beta); !math.IsInf(got, 1) {
		t.Errorf("unbounded arrival vs bounded service: delay = %g, want +Inf", got)
	}
}

func TestHorizontalDeviationBruteForce(t *testing.T) {
	alpha := Sum(TokenBucketCapped(2, 0.3, 1), TokenBucket(1, 0.1))
	beta := RateLatency(0.9, 1.5)
	got := HorizontalDeviation(alpha, beta)
	// Brute force: for each t, smallest d with alpha(t) <= beta(t+d).
	brute := 0.0
	for i := 0; i <= 3000; i++ {
		x := 30 * float64(i) / 3000
		a := alpha.EvalRight(x)
		lo, hi := 0.0, 200.0
		for k := 0; k < 60; k++ {
			mid := (lo + hi) / 2
			if beta.Eval(x+mid) >= a {
				hi = mid
			} else {
				lo = mid
			}
		}
		if hi > brute {
			brute = hi
		}
	}
	if math.Abs(got-brute) > 0.05 {
		t.Errorf("horizontal deviation = %g, brute %g", got, brute)
	}
	// The brute-force grid never exceeds the true supremum.
	if got < brute-1e-6 {
		t.Errorf("deviation %g below brute-force %g: bound unsound", got, brute)
	}
}

func TestMaxBusyPeriod(t *testing.T) {
	// Three (1, 0.2) sources through a unit server: G(t) = min stuff; busy
	// period ends when G(t) = t.
	g := Sum(TokenBucket(1, 0.2), TokenBucket(1, 0.2), TokenBucket(1, 0.2))
	// G(t) = 3 + 0.6t for t > 0; crossing 3 + 0.6t = t at t = 7.5.
	if got := MaxBusyPeriod(g, 1); !almostEqual(got, 7.5) {
		t.Errorf("busy period = %g, want 7.5", got)
	}
}

func TestMaxBusyPeriodUnstable(t *testing.T) {
	g := TokenBucket(1, 2)
	if got := MaxBusyPeriod(g, 1); !math.IsInf(got, 1) {
		t.Errorf("unstable busy period = %g, want +Inf", got)
	}
	// Critically loaded: rate exactly c with a burst never drains.
	crit := TokenBucket(1, 1)
	if got := MaxBusyPeriod(crit, 1); !math.IsInf(got, 1) {
		t.Errorf("critical busy period = %g, want +Inf", got)
	}
}

func TestMaxBusyPeriodZeroInput(t *testing.T) {
	if got := MaxBusyPeriod(Zero(), 1); got != 0 {
		t.Errorf("idle busy period = %g, want 0", got)
	}
	// A source slower than the server never backlogs beyond t=0.
	if got := MaxBusyPeriod(Rate(0.5), 1); !almostEqual(got, 0) {
		t.Errorf("underloaded busy period = %g, want 0", got)
	}
}

func TestMaxBusyPeriodCappedSources(t *testing.T) {
	// Capped token buckets: G grows at c for a while (server exactly keeps
	// up), then the burst region keeps it above the service line.
	g := Sum(TokenBucketCapped(1, 0.2, 1), TokenBucketCapped(1, 0.2, 1))
	// G(t) = 2t until each source's knee at 1/0.8 = 1.25, i.e. G=2t for
	// t<=1.25, then 2 + 0.4t... busy period ends when G(t) = t.
	got := MaxBusyPeriod(g, 1)
	// Solve 2 + 0.4t = t -> t = 10/3.
	if !almostEqual(got, 10.0/3) {
		t.Errorf("busy period = %g, want %g", got, 10.0/3)
	}
}

// horizontalDeviationProbe is HorizontalDeviation as it stood before the
// sweep, verbatim: every probe re-validates beta and walks its inverse from
// the first breakpoint. The sweep is held to it bit for bit.
func horizontalDeviationProbe(alpha, beta Curve) float64 {
	alpha.mustValid()
	beta.mustValid()
	if !alpha.IsNonDecreasing() || !beta.IsNonDecreasing() {
		panic("minplus: HorizontalDeviation requires non-decreasing curves")
	}
	if alpha.slope > beta.slope+Eps {
		return math.Inf(1)
	}
	if beta.slope <= Eps {
		// Bounded service: finite delay only if alpha is bounded below
		// beta's supremum.
		aSup := alpha.pts[len(alpha.pts)-1].Y
		bSup := beta.pts[len(beta.pts)-1].Y
		if alpha.slope > Eps || aSup > bSup+Eps {
			return math.Inf(1)
		}
	}
	// d(t) = betaInv(alpha(t)) - t is piecewise linear in t with
	// breakpoints at alpha's breakpoints and at preimages (under alpha) of
	// beta's breakpoint ordinates. The supremum over that candidate set is
	// order-independent, so the candidates are probed as they are
	// enumerated — no merged/sorted abscissa list is materialized and the
	// whole computation is allocation-free.
	best := 0.0
	probeOne := func(t, y float64) bool {
		x := LowerInverseAtBounded(beta, y)
		if x < 0 {
			best = math.Inf(1)
			return false
		}
		if d := x - t; d > best {
			best = d
		}
		return true
	}
	probe := func(t float64) {
		if !probeOne(t, alpha.Eval(t)) || !probeOne(t, alpha.EvalRight(t)) {
			return
		}
		// When alpha crosses a plateau ordinate of beta exactly at t and
		// keeps rising, the deviation just after t uses the strict inverse
		// inf{x : beta(x) > y}, which jumps across the plateau; take the
		// right limit of d at t as well (the deviation is a supremum, so
		// one-sided limits count). The strict inverse applies only while
		// alpha strictly increases after t: for a locally flat alpha the
		// non-strict inverse above is the exact one.
		if alpha.RightSlope(t) > Eps {
			y := alpha.EvalRight(t)
			x := strictInverseAtBounded(beta, y)
			if x < 0 {
				best = math.Inf(1)
				return
			}
			if d := x - t; d > best {
				best = d
			}
		}
	}
	maxT := 0.0
	for i, p := range alpha.pts {
		if i > 0 && almostEqual(p.X, alpha.pts[i-1].X) {
			continue
		}
		probe(p.X)
		if math.IsInf(best, 1) {
			return best
		}
		maxT = math.Max(maxT, p.X)
	}
	for _, p := range beta.pts {
		t := LowerInverseAtBounded(alpha, p.Y)
		if t < 0 {
			continue
		}
		probe(t)
		if math.IsInf(best, 1) {
			return best
		}
		maxT = math.Max(maxT, t)
	}
	// Tail probe: beyond the last candidate both alpha and betaInv(alpha)
	// are affine; if their difference still grows the deviation is
	// unbounded, otherwise the last candidates dominate.
	far := maxT + 1
	probe(far)
	probe(far + 1)
	return best
}

// strictInverseAtBounded returns inf{ x >= 0 : f(x) > y } for a
// non-decreasing curve, or -1 when f never strictly exceeds y (bounded
// curves whose supremum is at most y). It differs from the lower
// pseudo-inverse only where f has a plateau at exactly y, in which case the
// strict inverse skips past the plateau.
func strictInverseAtBounded(f Curve, y float64) float64 {
	x := LowerInverseAtBounded(f, y)
	if x < 0 {
		return -1
	}
	for {
		if r := f.EvalRight(x); r > y && !almostEqual(r, y) {
			return x
		}
		// The right limit at x is still y; if the curve rises continuously
		// from it, f exceeds y immediately after x and x is the strict
		// inverse. Only a genuine plateau (zero right slope) is skipped.
		if f.RightSlope(x) > Eps {
			return x
		}
		// The curve sits at (approximately) y just after x: advance to the
		// next distinct breakpoint, or into the affine tail.
		advanced := false
		for i, p := range f.pts {
			if i > 0 && almostEqual(p.X, f.pts[i-1].X) {
				continue
			}
			if p.X > x && !almostEqual(p.X, x) {
				x = p.X
				advanced = true
				break
			}
		}
		if !advanced {
			if f.slope > Eps {
				return x // the tail rises immediately past y
			}
			return -1 // flat forever at y
		}
	}
}

// deviationCorpus is the seeded operand set the sweep is held to the probe
// kernel on: the shapes the analyzers feed it, then lattice curves with
// jumps and plateaus, and the three ways a deviation is infinite.
func deviationCorpus() (alphas, betas []Curve) {
	rng := rand.New(rand.NewSource(27))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	concave := func() Curve {
		c := TokenBucket(u(0.1, 3), u(0.05, 0.4))
		for n := rng.Intn(4); n > 0; n-- {
			c = Min(c, TokenBucket(c.EvalRight(0)*u(0.2, 0.8), c.FinalSlope()*u(1.5, 3.5)))
		}
		return c
	}
	for i := 0; i < 12; i++ {
		alphas = append(alphas,
			TokenBucket(u(0.1, 3), u(0.05, 0.5)),
			TokenBucketCapped(u(0.2, 2), u(0.05, 0.3), u(1, 2)),
			concave(),
			Sum(TokenBucketCapped(u(0.2, 2), u(0.05, 0.2), 1), concave()))
		betas = append(betas, Rate(u(0.6, 2)), RateLatency(u(0.5, 1.5), u(0, 3)))
		// FIFO residuals [beta - cross(t - theta)]^+ past theta: gated-convex,
		// with a jump once theta exceeds the natural gate; and convolutions
		// of two, which are not gated-convex any more.
		var res [2]Curve
		for j := range res {
			capacity, cross := u(0.8, 2), concave()
			theta := 0.0
			if rng.Intn(3) > 0 {
				theta = u(0, 2*cross.EvalRight(0)/capacity)
			}
			raw := PositivePart(Sub(Rate(capacity), Delay(cross, theta)))
			if !raw.IsNonDecreasing() {
				raw = MonotoneClosure(raw)
			}
			res[j] = ZeroUntil(raw, theta)
		}
		betas = append(betas, res[0], res[1], Convolve(res[0], res[1]))
	}
	for i := 0; i < 40; i++ {
		alphas = append(alphas, genCurve(rng))
		betas = append(betas, genCurve(rng))
	}
	// A plateau of beta at exactly the ordinate of a breakpoint of alpha,
	// which keeps rising (the strict inverse skips the plateau), stays flat,
	// or jumps across it.
	plateau := New([]Point{{0, 0}, {2, 3}, {5, 3}, {6, 4}, {8, 4}}, 0.5)
	alphas = append(alphas,
		New([]Point{{0, 0}, {1, 3}}, 0.25),
		New([]Point{{0, 0}, {1, 3}, {4, 3}}, 0.25),
		New([]Point{{0, 1}, {1, 3}, {1, 4}}, 0.125),
		New([]Point{{0, 0}, {0, 3}, {2, 4}}, 0))
	betas = append(betas, plateau, New([]Point{{0, 0}, {0, 3}, {3, 3}}, 1))
	// Bounded service, and the infinite exits: a faster tail, a supremum
	// above the service's, and an arrival still rising where it meets a
	// service that is flat for ever.
	bounded := New([]Point{{0, 0}, {5, 5}}, 0)
	alphas = append(alphas,
		New([]Point{{0, 0}, {1, 3}}, 0),
		New([]Point{{0, 0}, {1, 9}}, 0),
		Rate(4),
		New([]Point{{0, 0}, {1, 5}, {1.0000001, 5 + 5e-10}}, 0))
	betas = append(betas, bounded, New([]Point{{0, 0}, {2, 0}, {2, 1}, {4, 6}}, 0))
	return alphas, betas
}

// TestHorizontalDeviationSweepMatchesProbe holds the sweep to the kernel it
// replaced, bit for bit, over the whole corpus crossed with itself.
func TestHorizontalDeviationSweepMatchesProbe(t *testing.T) {
	alphas, betas := deviationCorpus()
	finite, infinite := 0, 0
	for _, alpha := range alphas {
		for _, beta := range betas {
			got, want := HorizontalDeviation(alpha, beta), horizontalDeviationProbe(alpha, beta)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sweep %v (%016x), probe %v (%016x)\nalpha=%v\nbeta=%v",
					got, math.Float64bits(got), want, math.Float64bits(want), alpha, beta)
			}
			if math.IsInf(got, 1) {
				infinite++
			} else {
				finite++
			}
		}
	}
	t.Logf("%d finite and %d infinite deviations identical", finite, infinite)
	if finite == 0 || infinite == 0 {
		t.Error("the corpus no longer reaches both outcomes")
	}
	// The third infinite exit is a probe, not a tail comparison.
	rising := alphas[len(alphas)-1]
	if h := HorizontalDeviation(rising, New([]Point{{0, 0}, {5, 5}}, 0)); !math.IsInf(h, 1) {
		t.Errorf("arrival rising through the supremum of a bounded service: deviation %v, want +Inf", h)
	}
}
