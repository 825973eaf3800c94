package minplus

import (
	"math"
	"testing"
)

// TestInternKeys holds the builders' table to comparing parameters as ==
// does: equal parameters, zero of either sign included, hand back one
// shared curve, and builders of different kinds over the same parameters
// do not share.
func TestInternKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	same := func(a, b Curve) bool { return len(a.pts) > 0 && &a.pts[0] == &b.pts[0] }
	if a, b := TokenBucketCapped(3, 0.25, 1), TokenBucketCapped(3, 0.25, 1); !same(a, b) {
		t.Error("equal parameters built two curves")
	}
	if a, b := RateLatency(0.5, 0), RateLatency(0.5, negZero); !same(a, b) {
		t.Error("a latency of -0 missed the curve of latency 0")
	}
	if a, b := TokenBucket(2, 0.5), RateLatency(2, 0.5); same(a, b) || a.Equal(b) {
		t.Error("a token bucket and a rate-latency curve over the same parameters collide")
	}
	if a, b := Rate(1), TokenBucketCapped(1, 0, 1); same(a, b) {
		t.Error("builders of different kinds share a table slot")
	}
}
