package delaycalc_test

import (
	"math"
	"testing"

	"delaycalc"
)

// TestFacadeEndToEnd exercises the public API surface the README promises:
// build the paper network, run every analyzer, simulate, round-trip the
// spec, and run an admission test.
func TestFacadeEndToEnd(t *testing.T) {
	net, err := delaycalc.PaperTandem(4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []delaycalc.Analyzer{
		delaycalc.NewDecomposed(),
		delaycalc.NewServiceCurve(),
		delaycalc.NewIntegrated(),
	}
	bounds := make([]float64, len(analyzers))
	for i, a := range analyzers {
		res, err := a.Analyze(net)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		bounds[i] = res.Bound(0)
		if bounds[i] <= 0 || math.IsInf(bounds[i], 0) {
			t.Fatalf("%s: bad bound %g", a.Name(), bounds[i])
		}
	}
	// The README's headline ordering at 80% load.
	if !(bounds[2] < bounds[0] && bounds[0] < bounds[1]) {
		t.Errorf("ordering Integrated < Decomposed < ServiceCurve violated: %v", bounds)
	}

	sres, err := delaycalc.Simulate(net, delaycalc.SimConfig{
		PacketSize: 0.05,
		Horizon:    delaycalc.WorstCaseHorizon(net),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Stats[0].MaxDelay > bounds[2] {
		t.Errorf("simulated %g above integrated bound %g", sres.Stats[0].MaxDelay, bounds[2])
	}

	data, err := delaycalc.EncodeSpec(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := delaycalc.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Connections) != len(net.Connections) {
		t.Error("spec round trip changed the network")
	}
}

func TestFacadeAdmission(t *testing.T) {
	net, err := delaycalc.PaperTandem(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := delaycalc.NewAdmissionController(net.Servers, delaycalc.NewIntegrated())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Admit(delaycalc.Connection{
		Name:       "rt",
		Bucket:     delaycalc.TokenBucket{Sigma: 1, Rho: 0.05},
		AccessRate: 1,
		Path:       []int{0, 1, 2, 3},
		Deadline:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Errorf("expected admission, got %+v", d)
	}
}

func TestFacadeBuilders(t *testing.T) {
	if _, err := delaycalc.ParkingLot(3, 1, 0.2, 1); err != nil {
		t.Error(err)
	}
	if _, err := delaycalc.SinkTree(2, 1, 0.1, 1); err != nil {
		t.Error(err)
	}
	if _, err := delaycalc.RandomFeedforward(4, 6, 0.5, 1); err != nil {
		t.Error(err)
	}
	if _, err := delaycalc.NewGuaranteedRateNetworkCurve().Analyze(mustGRNet(t)); err != nil {
		t.Error(err)
	}
}

func mustGRNet(t *testing.T) *delaycalc.Network {
	t.Helper()
	return &delaycalc.Network{
		Servers: []delaycalc.Server{{Capacity: 1, Discipline: delaycalc.GuaranteedRate, Latency: 0.1}},
		Connections: []delaycalc.Connection{{
			Bucket: delaycalc.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0}, Rate: 0.5,
		}},
	}
}

func TestFacadeSources(t *testing.T) {
	var srcs = []delaycalc.Source{
		delaycalc.GreedySource{Sigma: 1, Rho: 0.2, Access: 1},
		delaycalc.OnOffSource{Sigma: 1, Rho: 0.2, Access: 1, On: 1, Off: 1},
		delaycalc.CBRSource{Rate: 0.2},
	}
	for i, s := range srcs {
		if len(s.Times(0.1, 20)) == 0 {
			t.Errorf("source %d emitted nothing", i)
		}
	}
}

func TestFacadeIntegratedChains(t *testing.T) {
	net, err := delaycalc.PaperTandem(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := delaycalc.NewIntegratedChains(2).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	full, err := delaycalc.NewIntegratedChains(6).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if full.Bound(0) >= pairs.Bound(0) {
		t.Errorf("full chains %g not tighter than pairs %g", full.Bound(0), pairs.Bound(0))
	}
}

func TestFacadeIntegratedSP(t *testing.T) {
	net := &delaycalc.Network{
		Servers: []delaycalc.Server{
			{Capacity: 1, Discipline: delaycalc.StaticPriority},
			{Capacity: 1, Discipline: delaycalc.StaticPriority},
		},
		Connections: []delaycalc.Connection{
			{Name: "bulk", Bucket: delaycalc.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0, 1}, Priority: 1},
			{Name: "urgent", Bucket: delaycalc.TokenBucket{Sigma: 1, Rho: 0.2}, AccessRate: 1, Path: []int{0, 1}, Priority: 0},
		},
	}
	res, err := delaycalc.NewIntegrated().Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound(1) >= res.Bound(0) {
		t.Errorf("urgent %g should beat bulk %g", res.Bound(1), res.Bound(0))
	}
}
