package analysis

import (
	"math"
	"testing"

	"delaycalc/internal/topo"
)

// Closed-form delay expressions derived by hand for the simplest
// configurations of the paper's evaluation topology. They are deliberately
// computed WITHOUT the curve algebra, so the tests that compare them
// against the analyzers (here) and the oracle (oracle_diff_test.go, through
// export_test.go) cross-check the implementation through an independent
// route. The first formula coincides with the one
// per-hop expression that survived the OCR of the paper's Section 4.2
// (E_1 = 2*sigma/(1-rho) at unit capacity), confirming that our reading of
// the topology matches the authors'.

// singleFIFOFreshDelay returns the worst-case FIFO delay of k identical
// (sigma, rho) sources, each rate-limited by an access line of the
// server's own capacity C, sharing that server: the backlog peaks at the
// common knee t* = sigma/(C-rho) where each flow has contributed C*t*,
// giving
//
//	d = (k-1) * sigma / (C - rho).
//
// Requires k*rho < C for stability.
func singleFIFOFreshDelay(k int, sigma, rho, capacity float64) float64 {
	return float64(k-1) * sigma / (capacity - rho)
}

// tandemFirstHopDelay returns the local delay at the first server of the
// paper's tandem, which carries three fresh connections (connection 0,
// a_0, b_0):
//
//	E_1 = 2 * sigma / (C - rho),
//
// the k = 3 case of singleFIFOFreshDelay and exactly the paper's E_1.
func tandemFirstHopDelay(sigma, rho, capacity float64) float64 {
	return singleFIFOFreshDelay(3, sigma, rho, capacity)
}

// tandemSecondHopDelay returns the decomposed local delay at the second
// server of the paper's tandem (n >= 3 so that b_1 continues), carrying
// two fresh connections (a_1, b_1) and two connections deformed by the
// first hop's delay d0 (connection 0, b_0).
//
// Derivation: after a shift of d0 = 2*sigma/(C-rho), a capped token bucket
// is in bucket mode for every interval length (d0 exceeds the knee
// sigma/(C-rho)), so the shifted envelopes are sigma + rho*d0 + rho*I.
// The aggregate minus the service line then increases up to the fresh
// flows' knee t* = sigma/(C-rho) (slope 2*rho + C > 0) and decreases
// afterwards (slope 4*rho - C < 0 for rho < C/4, which the topology
// guarantees), so the supremum sits at t*:
//
//	E_2 = [ 2*sigma + 2*rho*d0 + (2*rho + C)*t* ] / C.
func tandemSecondHopDelay(sigma, rho, capacity float64) float64 {
	d0 := tandemFirstHopDelay(sigma, rho, capacity)
	knee := sigma / (capacity - rho)
	return (2*sigma + 2*rho*d0 + (2*rho+capacity)*knee) / capacity
}

func TestClosedFormSingleServer(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, rho := range []float64{0.05, 0.1, 0.2} {
			net := singleServerNet(k, 1.5, rho, 1)
			res, err := (Decomposed{}).Analyze(net)
			if err != nil {
				t.Fatal(err)
			}
			want := singleFIFOFreshDelay(k, 1.5, rho, 1)
			if math.Abs(res.Bound(0)-want) > 1e-9 {
				t.Errorf("k=%d rho=%g: analyzer %g vs closed form %g", k, rho, res.Bound(0), want)
			}
		}
	}
}

func TestClosedFormTandemFirstTwoHops(t *testing.T) {
	for _, u := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		net, err := topo.PaperTandem(5, u)
		if err != nil {
			t.Fatal(err)
		}
		stages := stagesOf(t, Decomposed{}, net)
		rho := u / 4
		wantE1 := tandemFirstHopDelay(1, rho, 1)
		wantE2 := tandemSecondHopDelay(1, rho, 1)
		gotE1 := stages[0][0].Delay
		gotE2 := stages[0][1].Delay
		if math.Abs(gotE1-wantE1) > 1e-9 {
			t.Errorf("U=%g: E1 analyzer %g vs closed form %g", u, gotE1, wantE1)
		}
		if math.Abs(gotE2-wantE2) > 1e-9 {
			t.Errorf("U=%g: E2 analyzer %g vs closed form %g", u, gotE2, wantE2)
		}
	}
}

func TestClosedFormMatchesPaperUnitFormula(t *testing.T) {
	// The paper's surviving formula: E_1 = 2*sigma/(1-rho) at C = 1.
	for _, rho := range []float64{0.1, 0.2} {
		if got, want := tandemFirstHopDelay(1, rho, 1), 2/(1-rho); math.Abs(got-want) > 1e-12 {
			t.Errorf("rho=%g: E1 = %g, want %g", rho, got, want)
		}
	}
}

func TestClosedFormScalesWithCapacity(t *testing.T) {
	// Doubling capacity and all rates/bursts leaves delays unchanged;
	// doubling only capacity halves-ish them (sanity directions).
	base := tandemSecondHopDelay(1, 0.1, 1)
	scaled := tandemSecondHopDelay(2, 0.2, 2)
	if math.Abs(base-scaled) > 1e-12 {
		t.Errorf("joint scaling changed the delay: %g vs %g", base, scaled)
	}
	faster := tandemSecondHopDelay(1, 0.1, 2)
	if faster >= base {
		t.Errorf("doubling capacity did not reduce the delay: %g vs %g", faster, base)
	}
}
