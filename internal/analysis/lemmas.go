package analysis

import (
	"delaycalc/internal/minplus"
)

// This file implements the paper's Section 2 machinery (Lemmas 1-4) on the
// all-greedy fluid scenario: every source emits exactly its constraint
// function from time 0 and both servers are busy from time 0. The
// functions are exact for that scenario; GreedyPairEstimate, which
// composes them, is exported for the experiment harness.
//
// GreedyPairEstimate — the literal evaluation of Lemma 4 on the greedy
// scenario — is a tight ESTIMATE of the two-server through delay but NOT a
// proven upper bound over all arrival alignments: packet-level simulation
// of the paper's tandem exhibits conforming arrival patterns whose delay
// exceeds it (the worst case for a through bit can require cross bursts
// shifted in time relative to the busy-period start, the degree of freedom
// Theorem 1's outer maximization ranges over and the greedy scenario
// fixes). The Integrated analyzer therefore uses the sound residual-curve
// bound; the estimate remains available to quantify the gap.

// outputFunction returns W(t) = (lambda_C (x) G)(t), the cumulative output
// of a work-conserving constant-rate server with capacity c whose
// cumulative input is G (the paper's Lemma 1).
func outputFunction(g minplus.Curve, c float64) minplus.Curve {
	return minplus.Convolve(minplus.Rate(c), g)
}

// arrivalTimeFunction returns H(t) = G^{-1}(W(t)), the arrival time of the
// W(t)-th bit (the paper's Lemma 2): the composition of the lower
// pseudo-inverse of the input function with the output function.
func arrivalTimeFunction(g, w minplus.Curve) minplus.Curve {
	return minplus.Compose(minplus.LowerInverse(g), w)
}

// departureTimeFunction returns D(t) = W^{-1}(G(t)), the departure time of
// the G(t)-th arriving bit (the paper's Lemma 3).
func departureTimeFunction(g, w minplus.Curve) minplus.Curve {
	return minplus.Compose(minplus.LowerInverse(w), g)
}

// GreedyPairEstimate evaluates the paper's Lemma 4 delay expression
//
//	d = sup_t { W2^{-1}(G2(t)) - G1^{-1}(W1(t)) }
//
// on the all-greedy scenario for a two-server FIFO subsystem: f12 is the
// aggregate envelope of the through traffic, f1 of the traffic leaving
// after server 1, and f2 of the traffic joining at server 2; c1 and c2 are
// the capacities. See the file comment: this is a scenario-exact estimate,
// not a bound.
func GreedyPairEstimate(f12, f1, f2 minplus.Curve, c1, c2 float64) float64 {
	g1 := minplus.Add(f12, f1)
	w1 := outputFunction(g1, c1)
	h1 := arrivalTimeFunction(g1, w1)
	// S12 bits out of server 1 by time t: FIFO preserves arrival order,
	// so they are the S12 arrivals by H1(t), capped by the total output.
	out12 := minplus.Min(w1, minplus.Compose(f12, h1))
	g2 := minplus.Add(out12, f2)
	w2 := outputFunction(g2, c2)
	depart := departureTimeFunction(g2, w2)
	d := minplus.SupDiff(depart, h1)
	if d < 0 {
		d = 0
	}
	return d
}
