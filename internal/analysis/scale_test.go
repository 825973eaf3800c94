package analysis

import (
	"context"
	"fmt"
	"math"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// scaleNetwork multiplies every bit-valued parameter of net — capacities,
// sigma, rho, access and reserved rates — by k.
func scaleNetwork(net *topo.Network, k float64) *topo.Network {
	out := copyNetwork(net)
	for i := range out.Servers {
		out.Servers[i].Capacity *= k
	}
	for i := range out.Connections {
		c := &out.Connections[i]
		c.Bucket.Sigma *= k
		c.Bucket.Rho *= k
		c.AccessRate *= k
		c.Rate *= k
	}
	return out
}

// TestScaleLaw pins what normalization promises: an analysis of a network
// whose bit-valued parameters are all multiplied by 1e9 gives bit-identical
// delay bounds and backlogs of exactly 1e9 times the original — scaled once,
// not twice — for every analyzer, directly and, for the incremental ones,
// through a baseline build and through an extension of one.
func TestScaleLaw(t *testing.T) {
	const k = 1e9
	pt, err := topo.PaperTandem(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := topo.RandomFeedforward(12, 30, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := disciplineTandem(8, server.StaticPriority)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := disciplineTandem(8, server.GuaranteedRate)
	if err != nil {
		t.Fatal(err)
	}
	fifo := []Analyzer{Decomposed{}, Integrated{}, Integrated{ChainLength: 4}, ServiceCurve{}}
	for _, tc := range []struct {
		name      string
		net       *topo.Network
		analyzers []Analyzer
	}{
		{"paper-tandem", pt, fifo},
		{"random-ff", rf, fifo},
		{"sp-tandem", sp, []Analyzer{Decomposed{}, Integrated{}}},
		{"gr-tandem", gr, []Analyzer{Decomposed{}, GuaranteedRateNetworkCurve{}}},
	} {
		big := scaleNetwork(tc.net, k)
		for _, a := range tc.analyzers {
			runs := map[string]func(*topo.Network) (*Result, error){"analyze": a.Analyze}
			runs["baseline"] = func(net *topo.Network) (*Result, error) {
				b, err := a.NewBaseline(net)
				if err != nil {
					return nil, err
				}
				return b.Result(), nil
			}
			runs["extend"] = func(net *topo.Network) (*Result, error) {
				last := len(net.Connections) - 1
				b, err := a.NewBaseline(&topo.Network{Servers: net.Servers, Connections: net.Connections[:last]})
				if err != nil {
					return nil, err
				}
				ext, err := b.ExtendContext(context.Background(), net.Connections[last])
				if err != nil {
					return nil, err
				}
				return ext.Result(), nil
			}
			for how, run := range runs {
				label := fmt.Sprintf("%s/%+v/%s", tc.name, a, how)
				want, err := run(tc.net)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := run(big)
				if err != nil {
					t.Fatalf("%s scaled: %v", label, err)
				}
				if len(want.Backlogs) == 0 {
					t.Fatalf("%s: no backlogs to compare", label)
				}
				for i, b := range want.Bounds {
					if math.IsInf(b, 0) || got.Bounds[i] != b {
						t.Errorf("%s: conn %d bound %v scaled, %v unscaled", label, i, got.Bounds[i], b)
					}
				}
				for s, b := range want.Backlogs {
					if got.Backlogs[s] != k*b {
						t.Errorf("%s: server %d backlog %v scaled, want 1e9 x %v", label, s, got.Backlogs[s], b)
					}
				}
			}
		}
	}
}
