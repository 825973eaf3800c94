package analysis

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// requireDerivedState asserts that everything a Baseline derived from its
// parent by touching one connection's rows equals what a from-scratch
// build over its network produces: the route graph (successor rows, user
// counts, every rate bit for bit, order), the unit partition, the
// connection index and the source envelopes.
func requireDerivedState(t *testing.T, label string, bl *Baseline) {
	t.Helper()
	if bl.unstable {
		t.Fatalf("%s: the scenario is meant to stay stable", label)
	}
	want := topo.NewGraph(bl.norm)
	for u := 0; u < want.Servers(); u++ {
		got, exp := bl.graph.Succ(u), want.Succ(u)
		if len(got) != len(exp) {
			t.Fatalf("%s: server %d has %d successor edges, scratch build %d", label, u, len(got), len(exp))
		}
		for i := range exp {
			if got[i].To != exp[i].To || got[i].Users != exp[i].Users ||
				math.Float64bits(got[i].Rate) != math.Float64bits(exp[i].Rate) {
				t.Fatalf("%s: edge %d->%d: derived %+v, scratch build %+v", label, u, exp[i].To, got[i], exp[i])
			}
		}
	}
	if !slices.Equal(bl.graph.Order(), want.Order()) {
		t.Fatalf("%s: derived order %v, scratch build %v", label, bl.graph.Order(), want.Order())
	}
	units, levels, err := bl.core.plan(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameUnit := func(a, b unitSpec) bool { return slices.Equal(a.servers, b.servers) }
	if !slices.EqualFunc(bl.units, units, sameUnit) {
		t.Fatalf("%s: units %v, scratch partition %v", label, bl.units, units)
	}
	if !slices.EqualFunc(bl.levels, levels, func(a, b []unitSpec) bool { return slices.EqualFunc(a, b, sameUnit) }) {
		t.Fatalf("%s: levels %v, scratch levels %v", label, bl.levels, levels)
	}
	for _, l := range []struct {
		name string
		got  topo.Load
		net  *topo.Network
	}{{"load", bl.load, bl.norm}, {"caller-unit load", bl.origLoad, bl.orig}} {
		want := topo.NewRoutes(l.net).Load
		if l.got.Unstable != want.Unstable || !slices.EqualFunc(l.got.Sum, want.Sum, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: derived %s %v, scratch %v", label, l.name, l.got, want)
		}
	}
	if idx := bl.norm.ConnectionIndex(); !slices.EqualFunc(bl.idx, idx, slices.Equal[[]int]) {
		t.Fatalf("%s: derived connection index differs from the scratch build", label)
	}
	if len(bl.src) != len(bl.norm.Connections) {
		t.Fatalf("%s: %d cached source envelopes for %d connections", label, len(bl.src), len(bl.norm.Connections))
	}
	for i, c := range bl.norm.Connections {
		if !bl.src[i].Equal(c.SourceEnvelope()) {
			t.Fatalf("%s: cached source envelope of connection %d is stale", label, i)
		}
	}
}

// TestGraphDerivationMatchesScratch walks a Baseline through admits and
// releases and checks after every step that the copy-on-write state equals
// a from-scratch build. The scripted prefix covers the order-changing
// cases: a candidate adding a distinct edge, a release taking an edge's
// last user away, and a candidate bridging two chains of the partition.
func TestGraphDerivationMatchesScratch(t *testing.T) {
	rf, err := topo.RandomFeedforward(64, 400, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := topo.DisjointBlocks(2, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		net  *topo.Network
	}{{"rf64x400", rf}, {"blocks2x3", blocks}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			net := copyNetwork(tc.net)
			// Uneven rates, so that a fold in the wrong order shows in the
			// low bits of an edge's sum.
			for i := range net.Connections {
				net.Connections[i].Bucket.Rho *= 0.25 + rng.Float64()/2
			}
			bl, err := Integrated{}.NewBaseline(net)
			if err != nil {
				t.Fatal(err)
			}
			requireDerivedState(t, "baseline", bl)
			seq := 0
			admit := func(label string, path ...int) {
				t.Helper()
				seq++
				ext, err := bl.ExtendContext(context.Background(), topo.Connection{
					Name:       fmt.Sprintf("x%d", seq),
					Bucket:     traffic.TokenBucket{Sigma: 0.5, Rho: 1e-5 * (0.1 + rng.Float64())},
					AccessRate: 1,
					Path:       path,
				})
				if err != nil {
					t.Fatalf("%s: extend by %v: %v", label, path, err)
				}
				bl = ext.Promote()
				requireDerivedState(t, label, bl)
			}
			release := func(label string, i int) {
				t.Helper()
				ext, err := bl.ShrinkContext(context.Background(), i)
				if err != nil {
					t.Fatalf("%s: shrink %d: %v", label, i, err)
				}
				bl = ext.Promote()
				requireDerivedState(t, label, bl)
			}

			// An ascending pair no route uses yet: a new distinct edge, whose
			// only user then leaves again.
			u, v := unusedAscendingPair(t, bl.graph)
			before := bl.graph
			admit("new distinct edge", u, v)
			if bl.graph.SharesOrder(before) {
				t.Fatal("a new distinct edge must recompute the order")
			}
			before = bl.graph
			release("edge loses its last user", bl.Connections()-1)
			if bl.graph.SharesOrder(before) {
				t.Fatal("a vanished edge must recompute the order")
			}
			// The tail of one chain into the head of a later one.
			var bridge []int
			for i := 0; i+1 < len(bl.units) && bridge == nil; i++ {
				a := bl.units[i].servers[len(bl.units[i].servers)-1]
				if b := bl.units[i+1].servers[0]; a < b {
					bridge = []int{a, b}
				}
			}
			if bridge == nil {
				t.Fatal("no two consecutive chains to bridge")
			}
			admit("bridge two chains", bridge...)

			// The walk is sequential: the race detector only makes it ten
			// times slower, so it gets a short one.
			steps := 200
			if raceBuild() {
				steps = 30
			}
			n := net.Servers
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("step %d", step)
				if rng.Intn(9) < 4 && bl.Connections() > 1 {
					release(label, rng.Intn(bl.Connections()))
					continue
				}
				// Ascending routes keep both fabrics feedforward.
				var path []int
				for s := rng.Intn(len(n)); s < len(n) && len(path) < 1+rng.Intn(4); s += 1 + rng.Intn(3) {
					path = append(path, s)
				}
				admit(label, path...)
			}
		})
	}
}

// unusedAscendingPair finds servers u < v with no route edge u -> v.
func unusedAscendingPair(t *testing.T, g *topo.Graph) (int, int) {
	t.Helper()
	for u := 0; u < g.Servers(); u++ {
		for v := u + 1; v < g.Servers(); v++ {
			if !slices.ContainsFunc(g.Succ(u), func(e topo.Edge) bool { return e.To == v }) {
				return u, v
			}
		}
	}
	t.Fatal("every ascending pair is already a route edge")
	return 0, 0
}

// TestDerivedStateOnScaledNetworks walks baselines of the one-server-unit
// and the chain analysis through admits and releases on a network in bits
// per second, checking every step against scratch builds like
// TestGraphDerivationMatchesScratch: a one-server-unit trial whose order
// holds reuses its baseline's units and levels, and there the normalized
// load and the caller-unit load are two folds, both derived along the
// candidate's route.
func TestDerivedStateOnScaledNetworks(t *testing.T) {
	rf, err := topo.RandomFeedforward(48, 200, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := range rf.Servers {
		rf.Servers[i].Capacity *= 1e9
	}
	for i := range rf.Connections {
		c := &rf.Connections[i]
		c.Bucket.Sigma *= 1e9
		c.Bucket.Rho *= 1e9 * (0.25 + rng.Float64()/2)
		c.AccessRate *= 1e9
		c.Rate *= 1e9
	}
	for _, a := range []Analyzer{Decomposed{}, Integrated{}} {
		bl, err := a.NewBaseline(rf)
		if err != nil {
			t.Fatal(err)
		}
		if bl.scale == 1 {
			t.Fatal("the network is meant to be normalized")
		}
		requireDerivedState(t, a.Name()+" baseline", bl)
		steps := 60
		if raceBuild() {
			steps = 15
		}
		for step := 0; step < steps; step++ {
			label := fmt.Sprintf("%s step %d", a.Name(), step)
			var ext *Extension
			if rng.Intn(9) < 4 && bl.Connections() > 1 {
				ext, err = bl.ShrinkContext(context.Background(), rng.Intn(bl.Connections()))
			} else {
				var path []int
				for s := rng.Intn(len(rf.Servers)); s < len(rf.Servers) && len(path) < 1+rng.Intn(4); s += 1 + rng.Intn(3) {
					path = append(path, s)
				}
				ext, err = bl.ExtendContext(context.Background(), topo.Connection{
					Name:       fmt.Sprintf("x%d", step),
					Bucket:     traffic.TokenBucket{Sigma: 5e8, Rho: 1e4 * (0.1 + rng.Float64())},
					AccessRate: 1e9,
					Path:       path,
				})
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			bl = ext.Promote()
			requireDerivedState(t, label, bl)
		}
	}
}
