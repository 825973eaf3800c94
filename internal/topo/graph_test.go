package topo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/traffic"
)

// TestGraphMatchesNaiveFold pins NewGraph to the obvious construction: one
// map entry per route edge, rates added as the connections come, and a
// quadratic smallest-ready-first topological sort.
func TestGraphMatchesNaiveFold(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net, err := RandomFeedforward(24, 120, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range net.Connections {
			net.Connections[i].Bucket.Rho *= 0.1 + rng.Float64()
		}
		type key struct{ from, to int }
		naive := map[key]*Edge{}
		for _, c := range net.Connections {
			for i := 0; i+1 < len(c.Path); i++ {
				k := key{c.Path[i], c.Path[i+1]}
				if e := naive[k]; e != nil {
					e.Users++
					e.Rate += c.Bucket.Rho
				} else {
					naive[k] = &Edge{To: k.to, Users: 1, Rate: c.Bucket.Rho}
				}
			}
		}
		g := NewGraph(net)
		edges := 0
		for u := 0; u < g.Servers(); u++ {
			row := g.Succ(u)
			edges += len(row)
			if !slices.IsSortedFunc(row, func(a, b Edge) int { return a.To - b.To }) {
				t.Fatalf("seed %d: successors of %d not ascending: %+v", seed, u, row)
			}
			for _, e := range row {
				want := naive[key{u, e.To}]
				if want == nil || e.Users != want.Users || math.Float64bits(e.Rate) != math.Float64bits(want.Rate) {
					t.Fatalf("seed %d: edge %d->%d: graph %+v, naive fold %+v", seed, u, e.To, e, want)
				}
			}
		}
		if edges != len(naive) {
			t.Fatalf("seed %d: graph has %d edges, naive fold %d", seed, edges, len(naive))
		}

		indeg := make([]int, g.Servers())
		for k := range naive {
			indeg[k.to]++
		}
		var order []int
		for len(order) < g.Servers() {
			u := slices.Index(indeg, 0) // smallest ready server
			order = append(order, u)
			indeg[u] = -1
			for k := range naive {
				if k.from == u {
					indeg[k.to]--
				}
			}
		}
		if !slices.Equal(g.Order(), order) {
			t.Fatalf("seed %d: order %v, naive smallest-ready-first %v", seed, g.Order(), order)
		}
	}
}

// TestGraphCycle follows the order across derivations that close and
// reopen a cycle: it is nil exactly while the routes are not feedforward.
func TestGraphCycle(t *testing.T) {
	conn := func(path ...int) Connection {
		return Connection{Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, Path: path}
	}
	net := &Network{
		Servers:     make([]server.Server, 3),
		Connections: []Connection{conn(0, 1), conn(1, 2)},
	}
	g := NewGraph(net)
	if !slices.Equal(g.Order(), []int{0, 1, 2}) {
		t.Fatalf("order %v", g.Order())
	}
	back := conn(2, 0)
	cyclic := g.Extend(back)
	if cyclic.Order() != nil || NewGraph(&Network{Servers: net.Servers, Connections: append(net.Connections, back)}).Order() != nil {
		t.Fatal("2 -> 0 closes a cycle: no order exists")
	}
	if again := cyclic.Extend(conn(0, 1)); again.Order() != nil {
		t.Fatal("a cyclic graph stays cyclic under extension")
	}
	reopened := cyclic.Shrink(net, net.ConnectionIndex(), back)
	if !slices.Equal(reopened.Order(), []int{0, 1, 2}) {
		t.Fatalf("order after the closing route left: %v", reopened.Order())
	}
}
