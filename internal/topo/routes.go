package topo

import (
	"slices"

	"delaycalc/internal/server"
)

// Routes is everything an analysis reads off a network's routes before it
// analyzes anything: the route graph (with its topological order), the
// ConnectionIndex and the per-server load. NewRoutes derives all three from
// one counting sort of the hops by server.
type Routes struct {
	Graph *Graph
	// Index is the network's ConnectionIndex.
	Index [][]int
	Load  Load
	// names is the set of non-empty connection names the validation built
	// (ValidateRoutes), which a Checker takes over; nil from NewRoutes.
	names map[string]bool
}

// Load is the sustained rate a network offers each of its servers.
type Load struct {
	// Sum holds, per server, the sum of the sustained rates of the
	// connections crossing it, folded left to right in ascending
	// connection order: Utilization's sums before the division.
	Sum []float64
	// Unstable reports that some server's sum reaches its capacity: it is
	// !Network.Stable().
	Unstable bool
}

// NewRoutes derives the routes of n, whose connections must each be valid
// against n.Servers, in time linear in servers plus hops.
func NewRoutes(n *Network) Routes {
	r, ok := newRoutes(n)
	if !ok {
		panic("topo: NewRoutes of a network with a hop outside its servers")
	}
	return r
}

// newRoutes is NewRoutes, reporting false instead when a hop names no
// server. Everything else it takes as it comes, so it may run on a network
// still being validated: what it derives from an invalid one is discarded.
//
// One stable counting sort lays the hops out by server in ascending
// connection order, each with its connection (which makes the
// ConnectionIndex) and the server it came from, in one record so that the
// sort scatters one write per hop. Taking the servers in ascending order,
// one pass over that layout counts each row's distinct edges, and a second
// folds every hop into its row: rows receive their edges in ascending To,
// and the hops of one edge come together in ascending connection order, so
// every edge's rate is the left fold Edge.Rate promises without a search or
// an insertion. The load's sums are folded in the sorting pass, which takes
// the connections in order.
func newRoutes(n *Network) (Routes, bool) {
	type hop struct {
		conn, from int32 // from is -1 at a route's first hop
	}
	ns := len(n.Servers)
	start := make([]int, ns+1) // hops into v: byTo[start[v]:start[v+1]]
	for _, c := range n.Connections {
		for _, s := range c.Path {
			if s < 0 || s >= ns {
				return Routes{}, false
			}
			start[s+1]++
		}
	}
	for s := 1; s <= ns; s++ {
		start[s] += start[s-1]
	}
	byTo := make([]hop, start[ns])
	sum := make([]float64, ns)
	cur := make([]int, ns)
	copy(cur, start)
	for i, c := range n.Connections {
		prev := -1
		for _, s := range c.Path {
			byTo[cur[s]] = hop{int32(i), int32(prev)}
			cur[s]++
			sum[s] += c.Bucket.Rho
			prev = s
		}
	}

	// cur now remembers, per row, the last To counted: rows receive their
	// edges in ascending To, so a repeat is always the row's latest edge.
	rowStart := make([]int, ns+1)
	for u := range cur {
		cur[u] = -1
	}
	for v := 0; v < ns; v++ {
		for _, h := range byTo[start[v]:start[v+1]] {
			if u := h.from; u >= 0 && cur[u] != v {
				cur[u] = v
				rowStart[u+1]++
			}
		}
	}
	for u := 1; u <= ns; u++ {
		rowStart[u] += rowStart[u-1]
	}
	edges := make([]Edge, rowStart[ns])
	flat := make([]int, len(byTo))
	copy(cur, rowStart) // now each row's fill cursor
	for v := 0; v < ns; v++ {
		for k := start[v]; k < start[v+1]; k++ {
			h := byTo[k]
			flat[k] = int(h.conn)
			u := int(h.from)
			if u < 0 {
				continue
			}
			if last := cur[u] - 1; last >= rowStart[u] && edges[last].To == v {
				edges[last].Users++
				edges[last].Rate += n.Connections[h.conn].Bucket.Rho
				continue
			}
			edges[cur[u]] = Edge{To: v, Users: 1, Rate: n.Connections[h.conn].Bucket.Rho}
			cur[u]++
		}
	}
	g := &Graph{succ: make([][]Edge, ns)}
	for u := range g.succ {
		g.succ[u] = edges[rowStart[u]:rowStart[u+1]:rowStart[u+1]]
	}
	g.order = g.topologicalOrder()
	idx := make([][]int, ns)
	for s := range idx {
		idx[s] = flat[start[s]:start[s+1]:start[s+1]]
	}
	return Routes{Graph: g, Index: idx, Load: newLoad(n.Servers, sum)}, true
}

// Rescale returns the routes of view, the network of r with every rate
// rescaled: same servers, routes and names. The graph's rates and the load
// are folded again from view's rates, so they are bit-identical to
// NewRoutes(view)'s; the validation's name set carries over.
func (r Routes) Rescale(view *Network) Routes {
	v := NewRoutes(view)
	v.names = r.names
	return v
}

// newLoad decides the stability of the sums in sum.
func newLoad(servers []server.Server, sum []float64) Load {
	l := Load{Sum: sum}
	for s, x := range sum {
		if x/servers[s].Capacity >= 1 {
			l.Unstable = true
			break
		}
	}
	return l
}

// StableWith reports whether the network of servers with cand appended as
// its last connection is stable, in O(candidate hops) and without copying
// the sums: only the sums on cand's route change, and each takes cand's
// rate once, since a valid route visits each server once.
func (l Load) StableWith(servers []server.Server, cand Connection) bool {
	if l.Unstable {
		return false
	}
	for _, s := range cand.Path {
		if (l.Sum[s]+cand.Bucket.Rho)/servers[s].Capacity >= 1 {
			return false
		}
	}
	return true
}

// Extend returns the load of the network of servers with cand appended as
// its last connection, in one O(servers) copy of the sums plus O(candidate
// hops): each sum on cand's route takes cand's rate last, which is exactly
// the left fold Sum promises, and only those sums can newly reach their
// capacity (StableWith). cand must be valid.
func (l Load) Extend(servers []server.Server, cand Connection) Load {
	out := Load{Sum: slices.Clone(l.Sum), Unstable: !l.StableWith(servers, cand)}
	for _, s := range cand.Path {
		out.Sum[s] += cand.Bucket.Rho
	}
	return out
}

// Shrink returns the load of trial, the network with removed taken out;
// idx is trial's ConnectionIndex. A float sum cannot be un-added, so every
// sum removed crossed is folded again over its surviving users in index
// order, and stability is decided afresh over every server.
func (l Load) Shrink(trial *Network, idx [][]int, removed Connection) Load {
	sum := slices.Clone(l.Sum)
	for _, s := range removed.Path {
		sum[s] = 0
		for _, c := range idx[s] {
			sum[s] += trial.Connections[c].Bucket.Rho
		}
	}
	return newLoad(trial.Servers, sum)
}
