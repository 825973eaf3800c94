package topo

import (
	"fmt"

	"delaycalc/internal/server"
	"delaycalc/internal/traffic"
)

// Fabric is a physical topology: named nodes joined by directed links.
// Each link is one store-and-forward multiplexing point (a switch output
// port), so materializing a Fabric turns every link into one server of the
// analyzable Network. Demands are routed over fewest-hop paths.
type Fabric struct {
	Links []Link
}

// Link is one directed edge of the fabric.
type Link struct {
	From, To   string
	Capacity   float64
	Discipline server.Discipline
	Latency    float64
}

// Demand is one requested connection between fabric nodes.
type Demand struct {
	Name       string
	From, To   string
	Bucket     traffic.TokenBucket
	AccessRate float64
	Priority   int
	Rate       float64
	Deadline   float64
}

// Route returns the link indices of a fewest-hop path from one node to
// another (breadth-first search; ties broken by link order for
// determinism), or an error when no path exists.
func (f *Fabric) Route(from, to string) ([]int, error) {
	if from == to {
		return nil, fmt.Errorf("topo: demand from %q to itself", from)
	}
	adj := map[string][]int{} // node -> outgoing link indices
	for i, l := range f.Links {
		adj[l.From] = append(adj[l.From], i)
	}
	if len(adj[from]) == 0 {
		return nil, fmt.Errorf("topo: node %q has no outgoing links", from)
	}
	type hop struct {
		node string
		via  int // link used to reach node
		prev int // index into visited order, -1 for the source
	}
	visited := map[string]int{from: 0}
	order := []hop{{node: from, via: -1, prev: -1}}
	for head := 0; head < len(order); head++ {
		cur := order[head]
		if cur.node == to {
			var links []int
			for i := head; order[i].via >= 0; i = order[i].prev {
				links = append(links, order[i].via)
			}
			// Reverse into source-to-destination order.
			for l, r := 0, len(links)-1; l < r; l, r = l+1, r-1 {
				links[l], links[r] = links[r], links[l]
			}
			return links, nil
		}
		for _, li := range adj[cur.node] {
			next := f.Links[li].To
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = len(order)
			order = append(order, hop{node: next, via: li, prev: head})
		}
	}
	return nil, fmt.Errorf("topo: no path from %q to %q", from, to)
}

// Network materializes the fabric with the given demands into an
// analyzable Network: one server per link, one connection per demand,
// each routed over its fewest-hop path. The resulting route set must be
// feedforward; Network returns an error otherwise (pick link directions or
// demands accordingly — e.g. route rings in one direction only).
func (f *Fabric) Network(demands []Demand) (*Network, error) {
	if len(f.Links) == 0 {
		return nil, fmt.Errorf("topo: fabric has no links")
	}
	net := &Network{}
	for _, l := range f.Links {
		if l.From == l.To {
			return nil, fmt.Errorf("topo: self-loop link at %q", l.From)
		}
		net.Servers = append(net.Servers, server.Server{
			Name:       l.From + ">" + l.To,
			Capacity:   l.Capacity,
			Discipline: l.Discipline,
			Latency:    l.Latency,
		})
	}
	for _, d := range demands {
		path, err := f.Route(d.From, d.To)
		if err != nil {
			return nil, fmt.Errorf("topo: demand %q: %w", d.Name, err)
		}
		net.Connections = append(net.Connections, Connection{
			Name:       d.Name,
			Bucket:     d.Bucket,
			AccessRate: d.AccessRate,
			Path:       path,
			Priority:   d.Priority,
			Rate:       d.Rate,
			Deadline:   d.Deadline,
		})
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// LineFabric builds a bidirectional line of n nodes named "n0".."n{n-1}"
// with identical links in both directions.
func LineFabric(n int, capacity float64, d server.Discipline) *Fabric {
	f := &Fabric{}
	for i := 0; i+1 < n; i++ {
		a, b := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)
		f.Links = append(f.Links,
			Link{From: a, To: b, Capacity: capacity, Discipline: d},
			Link{From: b, To: a, Capacity: capacity, Discipline: d},
		)
	}
	return f
}

// StarFabric builds a hub-and-spoke fabric: leaves "l0".."l{n-1}" each
// with links to and from the hub "hub".
func StarFabric(leaves int, capacity float64, d server.Discipline) *Fabric {
	f := &Fabric{}
	for i := 0; i < leaves; i++ {
		l := fmt.Sprintf("l%d", i)
		f.Links = append(f.Links,
			Link{From: l, To: "hub", Capacity: capacity, Discipline: d},
			Link{From: "hub", To: l, Capacity: capacity, Discipline: d},
		)
	}
	return f
}
