package topo

import (
	"cmp"
	"math/bits"
	"slices"
)

// Edge is one distinct route edge out of a server: some connection visits
// To immediately after that server.
type Edge struct {
	To int
	// Users counts the connections traversing the edge.
	Users int
	// Rate is the sum of their sustained rates, folded left to right in
	// ascending connection order — the addition order every derivation of
	// this graph preserves, so the sum is bit-identical however the graph
	// was arrived at.
	Rate float64
}

// Graph is the route graph of a network: per server the distinct successor
// edges in ascending To order, plus the canonical topological order. It is
// what the paper's Steps 1-2 (partition, order) are functions of. A Graph
// is immutable and safe for concurrent use; Extend and Shrink derive the
// graph of a one-connection change by copying only the touched rows.
type Graph struct {
	succ  [][]Edge
	order []int // nil when the routes induce a cycle
}

// NewGraph builds the route graph of n, whose connections must each be
// valid against n.Servers: NewRoutes(n).Graph.
func NewGraph(n *Network) *Graph { return NewRoutes(n).Graph }

// foldHop adds one more user with rate rho to the edge for to in the row
// edges[start:], kept in ascending To order, inserting the edge when the
// hop is its first.
func foldHop(edges []Edge, start, to int, rho float64) []Edge {
	j, found := slices.BinarySearchFunc(edges[start:], to, func(e Edge, to int) int { return cmp.Compare(e.To, to) })
	if !found {
		return slices.Insert(edges, start+j, Edge{To: to, Users: 1, Rate: rho})
	}
	edges[start+j].Users++
	edges[start+j].Rate += rho
	return edges
}

// Servers returns the number of servers the graph spans.
func (g *Graph) Servers() int { return len(g.succ) }

// Succ returns server u's successor edges in ascending To order. The slice
// is shared; callers must not modify it.
func (g *Graph) Succ(u int) []Edge { return g.succ[u] }

// Order returns the canonical topological order of the servers (ties
// broken by server index), or nil when the routes induce a cycle. The
// slice is shared between a graph and those derived from it without an
// edge appearing or vanishing; callers must not modify it.
func (g *Graph) Order() []int { return g.order }

// SharesOrder reports whether both graphs carry the very same order slice
// — true exactly when the derivation chain between them never had an edge
// appear or vanish. Callers use it to reuse order-derived caches across an
// Extend or Shrink.
func (g *Graph) SharesOrder(o *Graph) bool {
	return len(g.order) > 0 && len(o.order) > 0 && &g.order[0] == &o.order[0]
}

func (g *Graph) topologicalOrder() []int {
	return MinFirstOrder(len(g.succ), func(u int, visit func(int)) {
		for _, e := range g.succ[u] {
			visit(e.To)
		}
	})
}

// Extend returns the graph of the network with cand appended as its last
// connection, in O(candidate hops) row copies: last in connection order
// means adding its rate is exactly the left fold's final step. The order
// is recomputed (from the graph, no hop sort) only when a distinct edge
// appears.
func (g *Graph) Extend(cand Connection) *Graph {
	ng := &Graph{succ: append([][]Edge(nil), g.succ...), order: g.order}
	grew := false
	for i := 0; i+1 < len(cand.Path); i++ {
		u, v := cand.Path[i], cand.Path[i+1]
		row := foldHop(append(make([]Edge, 0, len(g.succ[u])+1), g.succ[u]...), 0, v, cand.Bucket.Rho)
		grew = grew || len(row) > len(g.succ[u])
		ng.succ[u] = row
	}
	if grew && g.order != nil {
		ng.order = ng.topologicalOrder()
	}
	return ng
}

// Shrink returns the graph of trial — the network with removed taken out;
// idx is trial's ConnectionIndex. A float sum cannot be un-added, so every
// edge removed used is re-folded over its surviving users in index order;
// an edge that lost its last user disappears and the order is recomputed.
func (g *Graph) Shrink(trial *Network, idx [][]int, removed Connection) *Graph {
	ng := &Graph{succ: append([][]Edge(nil), g.succ...), order: g.order}
	shrank := false
	for i := 0; i+1 < len(removed.Path); i++ {
		u, v := removed.Path[i], removed.Path[i+1]
		row := make([]Edge, 0, len(g.succ[u]))
		for _, e := range g.succ[u] {
			if e.To != v {
				row = append(row, e)
			}
		}
		for _, c := range idx[u] {
			path := trial.Connections[c].Path
			if h := trial.HopIndex(c, u); h+1 < len(path) && path[h+1] == v {
				row = foldHop(row, 0, v, trial.Connections[c].Bucket.Rho)
			}
		}
		shrank = shrank || len(row) < len(g.succ[u])
		ng.succ[u] = row
	}
	if shrank {
		ng.order = ng.topologicalOrder()
	}
	return ng
}

// MinFirstOrder topologically sorts the n-node graph whose out-edges
// edges(u, visit) enumerates (repeats allowed), always taking the smallest
// ready node next, and returns nil when the graph has a cycle.
func MinFirstOrder(n int, edges func(u int, visit func(v int))) []int {
	indeg := make([]int, n)
	u, forward := 0, true // count reads the loop's u: one closure for all nodes
	count := func(v int) {
		indeg[v]++
		forward = forward && v > u
	}
	for u = 0; u < n; u++ {
		edges(u, count)
	}
	if forward {
		return identityOrder(n)
	}
	order := make([]int, 0, n)
	ready := newReadySet(n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			ready.add(u)
		}
	}
	release := func(v int) {
		if indeg[v]--; indeg[v] == 0 {
			ready.add(v)
		}
	}
	for u := ready.popMin(); u >= 0; u = ready.popMin() {
		order = append(order, u)
		edges(u, release)
	}
	if len(order) != n {
		return nil
	}
	return order
}

// identityOrder is MinFirstOrder's order of n nodes whose every edge points
// to a larger node: after the first i nodes node i is ready and no smaller
// one is left, so the smallest ready node is always the next index.
func identityOrder(n int) []int {
	order := make([]int, n)
	for u := range order {
		order[u] = u
	}
	return order
}

// readySet is MinFirstOrder's ready queue: a bitset over the nodes with one
// summary bit per word, so the smallest member is found in one word test
// per 4,096 nodes.
type readySet struct {
	words, summary []uint64
}

func newReadySet(n int) readySet {
	w := (n + 63) / 64
	return readySet{words: make([]uint64, w), summary: make([]uint64, (w+63)/64)}
}

func (r readySet) add(v int) {
	r.words[v>>6] |= 1 << (v & 63)
	r.summary[v>>12] |= 1 << ((v >> 6) & 63)
}

// popMin removes and returns the smallest member, or -1 when the set is
// empty.
func (r readySet) popMin() int {
	for i, s := range r.summary {
		if s == 0 {
			continue
		}
		w := i<<6 + bits.TrailingZeros64(s)
		b := bits.TrailingZeros64(r.words[w])
		if r.words[w] &^= 1 << b; r.words[w] == 0 {
			r.summary[i] &^= 1 << (w & 63)
		}
		return w<<6 + b
	}
	return -1
}
