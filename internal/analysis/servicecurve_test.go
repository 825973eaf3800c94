package analysis

import (
	"math"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

func TestServiceCurveSingleServerMatchesLeftoverDeviation(t *testing.T) {
	net := singleServerNet(3, 1, 0.2, 1)
	res, err := (ServiceCurve{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	// Independent computation: cross = 2 capped buckets, beta = [t - G]^+.
	env := minplus.TokenBucketCapped(1, 0.2, 1)
	cross := minplus.Sum(env, env)
	beta := minplus.PositivePart(minplus.Sub(minplus.Rate(1), cross))
	want := minplus.HorizontalDeviation(env, beta)
	for i := range net.Connections {
		if math.Abs(res.Bound(i)-want) > 1e-9 {
			t.Errorf("conn %d: bound %g, want %g", i, res.Bound(i), want)
		}
	}
}

func TestServiceCurveWorseThanDecomposedOnSingleFIFO(t *testing.T) {
	// Blind multiplexing cannot use FIFO order, so even at one server it
	// is no better than the FIFO-aware decomposed bound.
	net := singleServerNet(4, 1, 0.2, 1)
	rs, _ := (ServiceCurve{}).Analyze(net)
	rd, _ := (Decomposed{}).Analyze(net)
	if rs.Bound(0) < rd.Bound(0)-1e-9 {
		t.Errorf("service-curve %g beats FIFO bound %g at a single server", rs.Bound(0), rd.Bound(0))
	}
}

func TestServiceCurveDegradesWithLoadFasterThanDecomposed(t *testing.T) {
	// Paper Figure 4: as load grows the service-curve method's inadequacy
	// for FIFO becomes evident. Check the ratio SC/D grows with U on a
	// short tandem.
	prev := 0.0
	for _, u := range []float64{0.2, 0.5, 0.8, 0.9} {
		net, err := topo.PaperTandem(2, u)
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := (ServiceCurve{}).Analyze(net)
		rd, _ := (Decomposed{}).Analyze(net)
		ratio := rs.Bound(0) / rd.Bound(0)
		if ratio <= prev {
			t.Errorf("U=%g: SC/D ratio %g did not grow (prev %g)", u, ratio, prev)
		}
		prev = ratio
	}
	if prev < 1 {
		t.Errorf("at high load the service-curve method should be worse than decomposed (ratio %g)", prev)
	}
}

// TestServiceCurveCrossTrafficAtItsHop pins which envelope a connection's
// cross traffic is charged with: a four-hop connection crossing a one-hop
// one at its second server counts there with its source envelope shifted
// by its first stage's delay (read off Decomposed), not by the delays of
// the hops it crosses later.
func TestServiceCurveCrossTrafficAtItsHop(t *testing.T) {
	servers := make([]server.Server, 4)
	for i := range servers {
		servers[i] = server.Server{Capacity: 1, Discipline: server.FIFO}
	}
	net := &topo.Network{Servers: servers, Connections: []topo.Connection{
		{Name: "long", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, Path: []int{0, 1, 2, 3}},
		{Name: "short", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, Path: []int{1}},
	}}
	dec := stagesOf(t, Decomposed{}, net)
	res, err := (ServiceCurve{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	cross := minplus.ShiftLeft(net.Connections[0].SourceEnvelope(), dec[0][0].Delay)
	beta := minplus.PositivePart(minplus.Sub(minplus.Rate(1), cross))
	if !beta.IsNonDecreasing() {
		beta = minplus.MonotoneClosure(beta)
	}
	if want := minplus.HorizontalDeviation(net.Connections[1].SourceEnvelope(), beta); !boundsClose(res.Bound(1), want) {
		t.Errorf("one-hop connection: bound %v, want %v", res.Bound(1), want)
	}
}

func TestServiceCurveRejectsNonFIFO(t *testing.T) {
	net := &topo.Network{
		Servers: []server.Server{{Capacity: 1, Discipline: server.GuaranteedRate}},
		Connections: []topo.Connection{
			{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, Path: []int{0}, Rate: 0.5},
		},
	}
	if _, err := (ServiceCurve{}).Analyze(net); err == nil {
		t.Fatal("expected discipline error")
	}
}

func TestServiceCurveUnstable(t *testing.T) {
	net := singleServerNet(2, 1, 0.7, 1)
	res, err := (ServiceCurve{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Bound(0), 1) {
		t.Errorf("unstable: bound = %g, want +Inf", res.Bound(0))
	}
}

func TestFIFOResidualProperties(t *testing.T) {
	cross := minplus.TokenBucketCapped(2, 0.3, 1)
	for _, theta := range []float64{0, 0.5, 2, 5} {
		beta := residual(nil, minplus.Rate(1), cross, theta)
		if !beta.IsNonDecreasing() {
			t.Errorf("theta=%g: residual not non-decreasing: %v", theta, beta)
		}
		if got := beta.Eval(theta); got > 1e-9 {
			t.Errorf("theta=%g: residual %g > 0 at its gate", theta, got)
		}
		// Larger theta means more traffic already counted as gone: the
		// curve beyond the gate can only be higher.
		if theta > 0 {
			base := residual(nil, minplus.Rate(1), cross, 0)
			for _, x := range []float64{theta + 1, theta + 5, theta + 20} {
				if beta.Eval(x) < base.Eval(x)-1e-9 {
					t.Errorf("theta=%g: residual below theta=0 curve at %g", theta, x)
				}
			}
		}
	}
}

func TestFIFOResidualThetaZeroIsBlindLeftover(t *testing.T) {
	cross := minplus.TokenBucketCapped(2, 0.3, 1)
	got := residual(nil, minplus.Rate(1), cross, 0)
	want := minplus.PositivePart(minplus.Sub(minplus.Rate(1), cross))
	if !got.Equal(want) {
		t.Errorf("theta=0 residual %v != blind leftover %v", got, want)
	}
}

func TestThetaCandidatesContainStructuralPoints(t *testing.T) {
	cross := minplus.TokenBucketCapped(2, 0.3, 1)
	cands := thetaCandidatesArena(nil, 1, cross, 4)
	has := func(v float64) bool {
		for _, c := range cands {
			if math.Abs(c-v) < 1e-12 {
				return true
			}
		}
		return false
	}
	if !has(0) {
		t.Error("candidates missing 0")
	}
	knee := 2 / (1 - 0.3)
	if !has(knee) {
		t.Errorf("candidates missing the cross knee %g: %v", knee, cands)
	}
}
