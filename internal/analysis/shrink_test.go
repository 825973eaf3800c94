package analysis

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
	for _, tc := range []struct {
		inc    Analyzer
		corpus map[string]*topo.Network
	}{{Decomposed{}, fifo}, {Integrated{}, fifo}, {Integrated{}, sp}} {
		inc, corpus := tc.inc, tc.corpus
		for name, net := range corpus {
			base, err := inc.NewBaseline(net)
			if err != nil {
				t.Fatal(err)
			}
			for remove := 0; remove < len(net.Connections); remove++ {
				label := fmt.Sprintf("%s/%s/remove%d", inc.Name(), name, remove)
				ext, err := base.ShrinkContext(context.Background(), remove)
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
				requireStagesOfFull(t, label, inc, shrunk, ext.Promote())

				// The promoted baseline must extend bit-identically too:
				// re-admitting the released connection has to match a full
				// analysis of the re-extended network.
				reext, err := ext.Promote().ExtendContext(context.Background(), net.Connections[remove])
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
				requireStagesOfFull(t, label+"/readmit", inc, readmitted, reext.Promote())
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
	ext, err := base.ShrinkContext(context.Background(), 0)
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

// TestShrinkRecomputesALevelConcurrently releases the only connection
// between two pairs of servers, s0->s1 and s2->s3: the trial's units of
// both pairs land in one dependency level and are dirty together, so the
// driver recomputes them concurrently — a chain each for Integrated, s1 and
// s3 for Decomposed. The result must be the full analysis bit for bit, and
// under -race the run proves the level's units write disjoint state.
func TestShrinkRecomputesALevelConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	servers := make([]server.Server, 4)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	conn := func(name string, rho float64, path ...int) topo.Connection {
		return topo.Connection{Name: name, Bucket: traffic.TokenBucket{Sigma: 1, Rho: rho}, Path: path}
	}
	net := &topo.Network{Servers: servers, Connections: []topo.Connection{
		conn("a", 0.3, 0, 1), conn("b", 0.3, 2, 3), conn("bridge", 0.1, 1, 2),
	}}
	shrunk := &topo.Network{Servers: servers, Connections: net.Connections[:2]}
	for _, tc := range []struct {
		a Analyzer
		// The trial's levels, each unit named by its first server, and its
		// one replayed unit (s0, upstream of everything released) if any.
		levels   string
		replayed int
	}{{Integrated{}, "[[0 2]]", 0}, {Decomposed{}, "[[0 2] [1 3]]", 1}} {
		base, err := tc.a.NewBaseline(net)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.ShrinkContext(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.a.Analyze(shrunk)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, tc.a.Name(), want, ext.Result())
		requireStagesOfFull(t, tc.a.Name(), tc.a, shrunk, ext.Promote())
		trial := ext.Promote()
		var levels [][]int
		for _, level := range trial.levels {
			var firsts []int
			for _, u := range level {
				firsts = append(firsts, u.servers[0])
			}
			levels = append(levels, firsts)
		}
		if got := fmt.Sprint(levels); got != tc.levels {
			t.Errorf("%s: trial levels %s, want %s", tc.a.Name(), got, tc.levels)
		}
		if st := ext.Stats; st.ReplayedUnits != tc.replayed || st.RecomputedUnits != len(trial.units)-tc.replayed {
			t.Errorf("%s: replayed %d and recomputed %d of %d units, want %d replayed", tc.a.Name(),
				st.ReplayedUnits, st.RecomputedUnits, len(trial.units), tc.replayed)
		}
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
	if _, err := base.ShrinkContext(context.Background(), -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := base.ShrinkContext(context.Background(), len(net.Connections)); err == nil {
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
	for _, inc := range []Analyzer{Decomposed{}, Integrated{}} {
		base, err := inc.NewBaseline(net)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.ShrinkContext(context.Background(), 0)
		if err != nil {
			t.Fatalf("%s: shrink to empty: %v", inc.Name(), err)
		}
		if got := len(ext.Result().Bounds); got != 0 {
			t.Fatalf("%s: %d bounds on the empty network", inc.Name(), got)
		}
		reext, err := ext.Promote().ExtendContext(context.Background(), net.Connections[0])
		if err != nil {
			t.Fatalf("%s: extend from empty: %v", inc.Name(), err)
		}
		want, err := inc.Analyze(net)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, inc.Name()+"/from-empty", want, reext.Result())
		requireStagesOfFull(t, inc.Name()+"/from-empty", inc, net, reext.Promote())
	}
}

// TestShrinkStabilizesUnstableBaseline releases the one connection that
// overloads a network. The unstable baseline computed no bound, but the
// stable trial starts from its source envelopes, so the release must still
// match a full analysis of the shrunken network, for every analyzer; so
// must releasing it from an unstable baseline's extension.
func TestShrinkStabilizesUnstableBaseline(t *testing.T) {
	ctx := context.Background()
	fifo, err := topo.RandomFeedforward(6, 7, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fifo.Connections {
		fifo.Connections[i].Rate = fifo.Connections[i].Bucket.Rho / 2
	}
	for _, tc := range []struct {
		a   Analyzer
		net *topo.Network
	}{
		{Decomposed{}, fifo},
		{Integrated{}, fifo},
		{Integrated{ChainLength: 3}, fifo},
		{ServiceCurve{}, fifo},
		{GuaranteedRateNetworkCurve{}, fifo},
		{Integrated{}, spTandem(4, 0.6)},
	} {
		net, label := tc.net, tc.a.Name()
		first := net.Connections[0].Path[0]
		hog := topo.Connection{
			Name:   "hog",
			Bucket: traffic.TokenBucket{Sigma: 1, Rho: net.Servers[first].Capacity},
			Rate:   1e-3,
			Path:   []int{first},
		}
		// The hog sits mid-list, so the release also shifts the indices of
		// the connections after it.
		at := len(net.Connections) / 2
		last := len(net.Connections) - 1
		over := &topo.Network{Servers: net.Servers,
			Connections: slices.Insert(slices.Clone(net.Connections[:last]), at, hog)}
		base, err := tc.a.NewBaseline(over)
		if err != nil {
			t.Fatalf("%s: baseline: %v", label, err)
		}
		if !base.unstable {
			t.Fatalf("%s: the hog is meant to overload server %d", label, first)
		}
		for _, step := range []struct {
			name string
			from *Baseline
			want *topo.Network
		}{
			{"baseline", base, &topo.Network{Servers: net.Servers, Connections: net.Connections[:last]}},
			{"extension", nil, net},
		} {
			from := step.from
			if from == nil {
				ext, err := base.ExtendContext(ctx, net.Connections[last])
				if err != nil {
					t.Fatalf("%s: extend: %v", label, err)
				}
				from = ext.Promote()
			}
			shrunk, err := from.ShrinkContext(ctx, at)
			if err != nil {
				t.Fatalf("%s/%s: shrink: %v", label, step.name, err)
			}
			want, err := tc.a.Analyze(step.want)
			if err != nil {
				t.Fatalf("%s/%s: full analyze: %v", label, step.name, err)
			}
			requireSameResult(t, label+"/"+step.name, want, shrunk.Result())
			requireStagesOfFull(t, label+"/"+step.name, tc.a, step.want, shrunk.Promote())
		}
	}
}
