// Package traffic defines the source-traffic models and per-connection
// descriptors used by the delay analyzers: token buckets, peak-rate-limited
// TSpecs, general piecewise-linear envelopes, and the burstiness
// propagation rules that track how an envelope deforms as traffic crosses
// servers ("b'(I) = b(I + d)" in the paper's notation).
package traffic

import (
	"fmt"

	"delaycalc/internal/minplus"
)

// TokenBucket describes a (sigma, rho) leaky-bucket regulator: at most
// Sigma + Rho*I bits may enter the network in any interval of length I.
type TokenBucket struct {
	Sigma float64 // bucket depth (burst), in bits
	Rho   float64 // token rate (sustained rate), in bits per second
}

// Validate reports whether the parameters are usable.
func (tb TokenBucket) Validate() error {
	if tb.Sigma < 0 {
		return fmt.Errorf("traffic: negative burst %g", tb.Sigma)
	}
	if tb.Rho < 0 {
		return fmt.Errorf("traffic: negative rate %g", tb.Rho)
	}
	return nil
}

// Envelope returns the pure token-bucket arrival curve min{I==0 ? 0 :
// Sigma + Rho*I}.
func (tb TokenBucket) Envelope() minplus.Curve {
	return minplus.TokenBucket(tb.Sigma, tb.Rho)
}

// EnvelopeCapped returns the arrival curve of the bucket behind an access
// link of capacity c: min{c*I, Sigma + Rho*I}. This is the source model of
// the paper's evaluation (traffic cannot enter faster than the line rate).
func (tb TokenBucket) EnvelopeCapped(c float64) minplus.Curve {
	return minplus.TokenBucketCapped(tb.Sigma, tb.Rho, c)
}

// String renders the bucket as "(sigma, rho)".
func (tb TokenBucket) String() string {
	return fmt.Sprintf("(%g, %g)", tb.Sigma, tb.Rho)
}

// Conforms checks that packet emissions of the given size at the given
// (non-decreasing) instants stay within the bucket envelope: every window
// (s, t] must carry at most Sigma + Rho*(t-s) bits. With f(i) = i*L -
// Rho*t_i (cumulative bits minus refill, f(0) = 0 for the window opening
// at time zero with a full bucket), the condition is f(j) - min_{i<j} f(i)
// <= Sigma for every j, which one pass computes exactly. A small relative
// tolerance absorbs the floating-point equalities exact greedy sources sit
// on. It returns nil when the trace conforms, or an error naming the first
// offending packet — the guard falsification uses to reject adversarial
// traces that overdraw their declared envelope (a delay observed under
// non-conforming traffic says nothing about the bound).
func (tb TokenBucket) Conforms(times []float64, packetSize float64) error {
	if packetSize <= 0 {
		return fmt.Errorf("traffic: non-positive packet size %g", packetSize)
	}
	eps := 1e-9 * (tb.Sigma + tb.Rho + packetSize + 1)
	prev := 0.0
	minF := 0.0 // f(0): the window opening at time zero
	for i, t := range times {
		if t < prev {
			return fmt.Errorf("traffic: packet %d emitted at %g before packet %d at %g", i, t, i-1, prev)
		}
		if t < 0 {
			return fmt.Errorf("traffic: packet %d emitted at negative time %g", i, t)
		}
		f := float64(i+1)*packetSize - tb.Rho*t
		if f-minF > tb.Sigma+eps {
			return fmt.Errorf("traffic: packet %d at t=%g overdraws bucket %v by %g bits",
				i, t, tb, f-minF-tb.Sigma)
		}
		if f < minF {
			minF = f
		}
		prev = t
	}
	return nil
}

// TSpec is the IETF-style traffic specification: a token bucket plus a peak
// rate and maximum packet size. Its envelope is
// min{M + P*I, Sigma + Rho*I}.
type TSpec struct {
	TokenBucket
	Peak    float64 // peak rate P >= Rho
	MaxUnit float64 // maximum packet size M
}

// Validate reports whether the TSpec is self-consistent.
func (ts TSpec) Validate() error {
	if err := ts.TokenBucket.Validate(); err != nil {
		return err
	}
	if ts.Peak < ts.Rho {
		return fmt.Errorf("traffic: peak rate %g below sustained rate %g", ts.Peak, ts.Rho)
	}
	if ts.MaxUnit < 0 {
		return fmt.Errorf("traffic: negative maximum unit %g", ts.MaxUnit)
	}
	return nil
}

// Envelope returns min{M + P*I, Sigma + Rho*I} (with the value 0 at I=0).
func (ts TSpec) Envelope() minplus.Curve {
	peak := minplus.TokenBucket(ts.MaxUnit, ts.Peak)
	sustained := minplus.TokenBucket(ts.Sigma, ts.Rho)
	return minplus.Min(peak, sustained)
}

// Shifted returns the envelope deformed by a delay bound d upstream:
// b'(I) = b(I + d). For a token bucket this is the classical burstiness
// increase sigma' = sigma + rho*d. Shifted applies to any envelope curve.
func Shifted(envelope minplus.Curve, d float64) minplus.Curve {
	if d < 0 {
		panic("traffic: Shifted with negative delay")
	}
	if d == 0 {
		return envelope
	}
	return minplus.ShiftLeft(envelope, d)
}

// ShiftedBucket returns the token bucket that results from pushing tb
// through a stage with delay bound d: (sigma + rho*d, rho).
func ShiftedBucket(tb TokenBucket, d float64) TokenBucket {
	if d < 0 {
		panic("traffic: ShiftedBucket with negative delay")
	}
	return TokenBucket{Sigma: tb.Sigma + tb.Rho*d, Rho: tb.Rho}
}
