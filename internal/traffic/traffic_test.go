package traffic

import (
	"math"
	"testing"

	"delaycalc/internal/minplus"
)

func TestTokenBucketValidate(t *testing.T) {
	if err := (TokenBucket{Sigma: 1, Rho: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (TokenBucket{Sigma: -1}).Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	if err := (TokenBucket{Rho: -1}).Validate(); err == nil {
		t.Error("negative rho accepted")
	}
}

func TestTokenBucketEnvelopes(t *testing.T) {
	tb := TokenBucket{Sigma: 2, Rho: 0.5}
	env := tb.Envelope()
	if got := env.Eval(0); got != 0 {
		t.Errorf("envelope at 0 = %g, want 0", got)
	}
	if got := env.Eval(4); math.Abs(got-4) > 1e-12 {
		t.Errorf("envelope at 4 = %g, want 4", got)
	}
	capped := tb.EnvelopeCapped(1)
	if got := capped.Eval(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("capped envelope at 1 = %g, want 1 (line limited)", got)
	}
	if capped.Eval(1) > env.EvalRight(1)+1e-12 {
		t.Error("capped envelope must not exceed the pure bucket")
	}
}

func TestTokenBucketString(t *testing.T) {
	if got := (TokenBucket{Sigma: 2, Rho: 0.5}).String(); got != "(2, 0.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestTSpec(t *testing.T) {
	ts := TSpec{TokenBucket: TokenBucket{Sigma: 10, Rho: 1}, Peak: 4, MaxUnit: 1}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	env := ts.Envelope()
	// Early: peak-limited (1 + 4t); late: bucket-limited (10 + t).
	if got, want := env.Eval(1), 5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("TSpec envelope at 1 = %g, want %g", got, want)
	}
	if got, want := env.Eval(10), 20.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("TSpec envelope at 10 = %g, want %g", got, want)
	}
	bad := TSpec{TokenBucket: TokenBucket{Sigma: 1, Rho: 2}, Peak: 1}
	if err := bad.Validate(); err == nil {
		t.Error("peak below sustained rate accepted")
	}
}

func TestShifted(t *testing.T) {
	tb := TokenBucket{Sigma: 2, Rho: 0.5}
	env := tb.EnvelopeCapped(1)
	sh := Shifted(env, 3)
	for _, x := range []float64{0, 1, 5, 10} {
		if got, want := sh.Eval(x), env.Eval(x+3); math.Abs(got-want) > 1e-12 {
			t.Errorf("shifted at %g = %g, want %g", x, got, want)
		}
	}
	if !Shifted(env, 0).Equal(env) {
		t.Error("zero shift must be identity")
	}
}

func TestShiftedBucket(t *testing.T) {
	tb := TokenBucket{Sigma: 2, Rho: 0.5}
	sb := ShiftedBucket(tb, 4)
	if sb.Sigma != 4 || sb.Rho != 0.5 {
		t.Errorf("shifted bucket = %v, want (4, 0.5)", sb)
	}
	// Consistency with the envelope shift for the pure bucket: for t > 0
	// both give sigma + rho*(t + d).
	env := Shifted(tb.Envelope(), 4)
	if got, want := env.Eval(2), sb.Envelope().EvalRight(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("envelope shift %g != bucket shift %g", got, want)
	}
}

func TestShiftedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	Shifted(minplus.Zero(), -1)
}

func TestTokenBucketConforms(t *testing.T) {
	tb := TokenBucket{Sigma: 1, Rho: 0.5}
	// A full-bucket burst followed by rate-spaced packets conforms.
	conforming := []float64{0, 0, 0, 0, 0.4, 0.8, 1.2}
	if err := tb.Conforms(conforming, 0.2); err != nil {
		t.Fatalf("conforming trace rejected: %v", err)
	}
	// Six packets at time zero overdraw the one-bit bucket.
	if err := tb.Conforms([]float64{0, 0, 0, 0, 0, 0}, 0.2); err == nil {
		t.Fatal("overdrawn burst accepted")
	}
	// Refilling too fast: packets at twice the token rate drain out.
	fast := make([]float64, 20)
	for i := range fast {
		fast[i] = float64(i) * 0.1 // rate 2, bucket refills at 0.5
	}
	if err := tb.Conforms(fast, 0.2); err == nil {
		t.Fatal("over-rate trace accepted")
	}
	// Non-monotone times are rejected outright.
	if err := tb.Conforms([]float64{0.5, 0.1}, 0.2); err == nil {
		t.Fatal("non-monotone trace accepted")
	}
	// Invalid packet size.
	if err := tb.Conforms([]float64{0}, 0); err == nil {
		t.Fatal("zero packet size accepted")
	}
}

func TestTokenBucketConformsSimSources(t *testing.T) {
	// Every adversarially-placed greedy pattern must pass its own
	// bucket's conformance check (falsify depends on this guard).
	tb := TokenBucket{Sigma: 1, Rho: 0.25}
	if err := tb.Conforms([]float64{0, 0, 0, 0, 1.0, 2.0}, 0.25); err != nil {
		t.Fatalf("greedy-shaped trace rejected: %v", err)
	}
}
