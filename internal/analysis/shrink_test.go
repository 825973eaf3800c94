package analysis

import (
	"context"
	"fmt"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// TestShrinkMatchesFullAnalysis is the bit-identity check for incremental
// removal: over randomized feedforward networks, shrinking a baseline by
// any connection index must reproduce the full analysis of the shrunken
// network exactly — bounds, stages, and backlogs — for every incremental
// analyzer, and the promoted baseline must keep extending exactly.
func TestShrinkMatchesFullAnalysis(t *testing.T) {
	fifo, sp := map[string]*topo.Network{}, map[string]*topo.Network{}
	for seed := int64(0); seed < 8; seed++ {
		net, err := topo.RandomFeedforward(6, 7, 0.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		fifo[fmt.Sprintf("seed%d", seed)] = net
	}
	// Six of the static-priority corpus (30 removal indices each), three of
	// them with server latencies.
	spAll := spRandomCorpus(t)
	for seed := 1; seed <= 6; seed++ {
		name := fmt.Sprintf("spff12x30-seed%d", seed)
		sp[name] = spAll[name]
	}
	for inc, corpus := range map[Incremental]map[string]*topo.Network{Decomposed{}: fifo, Integrated{}: fifo, IntegratedSP{}: sp} {
		for name, net := range corpus {
			base, err := inc.NewBaseline(net)
			if err != nil {
				t.Fatal(err)
			}
			for remove := 0; remove < len(net.Connections); remove++ {
				label := fmt.Sprintf("%s/%s/remove%d", inc.Name(), name, remove)
				ext, err := base.Shrink(remove)
				if err != nil {
					t.Fatalf("%s: shrink: %v", label, err)
				}
				shrunk := &topo.Network{
					Servers:     net.Servers,
					Connections: removeAt(net.Connections, remove),
				}
				want, err := inc.Analyze(shrunk)
				if err != nil {
					t.Fatalf("%s: full analyze: %v", label, err)
				}
				requireSameResult(t, label, want, ext.Result())

				// The promoted baseline must extend bit-identically too:
				// re-admitting the released connection has to match a full
				// analysis of the re-extended network.
				reext, err := ext.Promote().Extend(net.Connections[remove])
				if err != nil {
					t.Fatalf("%s: re-extend: %v", label, err)
				}
				readmitted := &topo.Network{
					Servers: net.Servers,
					Connections: append(append([]topo.Connection(nil), shrunk.Connections...),
						net.Connections[remove]),
				}
				want, err = inc.Analyze(readmitted)
				if err != nil {
					t.Fatalf("%s: full re-analyze: %v", label, err)
				}
				requireSameResult(t, label+"/readmit", want, reext.Result())
			}
		}
	}
}

// TestShrinkScopesWork pins the point of the tentpole: releasing a
// connection whose closure is a strict subset of a long tandem must replay
// most units rather than recompute them.
func TestShrinkScopesWork(t *testing.T) {
	const n = 16
	servers := make([]server.Server, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	conns := make([]topo.Connection, n/2)
	for i := range conns {
		conns[i] = topo.Connection{
			Name:       fmt.Sprintf("c%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.05},
			AccessRate: 1,
			Path:       []int{2 * i, 2*i + 1}, // disjoint 2-hop routes
		}
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	base, err := Decomposed{}.NewBaseline(net)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := base.Shrink(0)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Stats.Affected != 0 {
		t.Errorf("disjoint release affected %d survivors, want 0", ext.Stats.Affected)
	}
	if ext.Stats.RecomputedUnits > 2 {
		t.Errorf("recomputed %d units, want <= 2 (the released route)", ext.Stats.RecomputedUnits)
	}
	if ext.Stats.ReplayedUnits < n-2 {
		t.Errorf("replayed %d units, want >= %d", ext.Stats.ReplayedUnits, n-2)
	}
}

// TestShrinkErrors covers the degenerate inputs.
func TestShrinkErrors(t *testing.T) {
	net, err := topo.RandomFeedforward(4, 3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Integrated{}.NewBaseline(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Shrink(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := base.Shrink(len(net.Connections)); err == nil {
		t.Error("out-of-range index accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := base.ShrinkContext(ctx, 0); err == nil {
		t.Error("cancelled shrink returned no error")
	}
}

// TestShrinkToEmpty releases the only connection: the promoted baseline
// must cover the empty network and still accept a fresh extension.
func TestShrinkToEmpty(t *testing.T) {
	net, err := topo.RandomFeedforward(4, 1, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range []Incremental{Decomposed{}, Integrated{}} {
		base, err := inc.NewBaseline(net)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.Shrink(0)
		if err != nil {
			t.Fatalf("%s: shrink to empty: %v", inc.Name(), err)
		}
		if got := len(ext.Result().Bounds); got != 0 {
			t.Fatalf("%s: %d bounds on the empty network", inc.Name(), got)
		}
		reext, err := ext.Promote().Extend(net.Connections[0])
		if err != nil {
			t.Fatalf("%s: extend from empty: %v", inc.Name(), err)
		}
		want, err := inc.Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, inc.Name()+"/from-empty", want, reext.Result())
	}
}
