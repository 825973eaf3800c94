package topo

import (
	"cmp"
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
// valid against n.Servers, in time linear in servers plus hops: a stable
// counting sort lays the hops out by To in ascending connection order, one
// pass over that layout counts each row's distinct edges, and a second
// folds every hop into its row. Taking the hops in To order appends each
// row's edges in ascending To order and brings the hops of one edge
// together in ascending connection order, so every edge's rate is the left
// fold Edge.Rate promises without a search or an insertion.
func NewGraph(n *Network) *Graph {
	type hop struct {
		from int
		rho  float64
	}
	ns := len(n.Servers)
	toStart := make([]int, ns+1) // hops into v: byTo[toStart[v]:toStart[v+1]]
	for _, c := range n.Connections {
		for i := 1; i < len(c.Path); i++ {
			toStart[c.Path[i]+1]++
		}
	}
	for v := 1; v <= ns; v++ {
		toStart[v] += toStart[v-1]
	}
	byTo := make([]hop, toStart[ns])
	cur := make([]int, ns)
	copy(cur, toStart)
	for _, c := range n.Connections {
		for i := 1; i < len(c.Path); i++ {
			v := c.Path[i]
			byTo[cur[v]] = hop{c.Path[i-1], c.Bucket.Rho}
			cur[v]++
		}
	}
	// cur now remembers, per row, the last To counted: rows receive their
	// edges in ascending To, so a repeat is always the row's latest edge.
	rowStart := make([]int, ns+1)
	for u := range cur {
		cur[u] = -1
	}
	for v := 0; v < ns; v++ {
		for _, h := range byTo[toStart[v]:toStart[v+1]] {
			if cur[h.from] != v {
				cur[h.from] = v
				rowStart[h.from+1]++
			}
		}
	}
	for u := 1; u <= ns; u++ {
		rowStart[u] += rowStart[u-1]
	}
	flat := make([]Edge, rowStart[ns])
	copy(cur, rowStart) // now each row's fill cursor
	for v := 0; v < ns; v++ {
		for _, h := range byTo[toStart[v]:toStart[v+1]] {
			u := h.from
			if last := cur[u] - 1; last >= rowStart[u] && flat[last].To == v {
				flat[last].Users++
				flat[last].Rate += h.rho
				continue
			}
			flat[cur[u]] = Edge{To: v, Users: 1, Rate: h.rho}
			cur[u]++
		}
	}
	g := &Graph{succ: make([][]Edge, ns)}
	for u := range g.succ {
		g.succ[u] = flat[rowStart[u]:rowStart[u+1]:rowStart[u+1]]
	}
	g.order = g.topologicalOrder()
	return g
}

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
	count := func(v int) { indeg[v]++ }
	for u := 0; u < n; u++ {
		edges(u, count)
	}
	ready := make(intMinHeap, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			ready.push(u)
		}
	}
	order := make([]int, 0, n)
	release := func(v int) {
		if indeg[v]--; indeg[v] == 0 {
			ready.push(v)
		}
	}
	for len(ready) > 0 {
		u := ready.pop()
		order = append(order, u)
		edges(u, release)
	}
	if len(order) != n {
		return nil
	}
	return order
}

// intMinHeap is a binary min-heap of node indices: MinFirstOrder's ready
// queue.
type intMinHeap []int

func (h *intMinHeap) push(x int) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *intMinHeap) pop() int {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l] < s[m] {
			m = l
		}
		if r < n && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
