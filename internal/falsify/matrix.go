package falsify

import (
	"fmt"
	"sort"
	"strings"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// Scenario is one entry of the falsification matrix: a named network plus
// the adversary's search envelope.
type Scenario struct {
	Name string
	Net  *topo.Network
	// Spread bounds the phase offsets and burst delays the adversary may
	// try, in time units; it also pads the simulation horizon so shifted
	// activity still completes its busy periods.
	Spread float64
}

// DefaultMatrix builds the standing scenario matrix from the topo
// builders: paper tandems across size and load, the parking-lot and
// sink-tree stress shapes, random feedforward meshes, routed fabric
// networks (star hub contention, bidirectional line), and a pair whose
// cross bursts dwarf the through traffic's. Every scenario is
// stable and FIFO, so the Decomposed and Integrated bounds apply and must
// hold.
func DefaultMatrix() ([]Scenario, error) {
	var out []Scenario
	add := func(name string, net *topo.Network, err error, spread float64) error {
		if err != nil {
			return fmt.Errorf("falsify: building %s: %w", name, err)
		}
		out = append(out, Scenario{Name: name, Net: net, Spread: spread})
		return nil
	}
	for _, tc := range []struct {
		n int
		u float64
	}{{2, 0.5}, {2, 0.8}, {3, 0.7}, {4, 0.8}} {
		net, err := topo.PaperTandem(tc.n, tc.u)
		if err := add(fmt.Sprintf("tandem%d-u%02.0f", tc.n, tc.u*100), net, err, 8); err != nil {
			return nil, err
		}
	}
	{
		net, err := topo.ParkingLot(4, 1, 0.3, 1)
		if err := add("parkinglot4", net, err, 8); err != nil {
			return nil, err
		}
	}
	{
		net, err := topo.SinkTree(3, 1, 0.1, 1)
		if err := add("sinktree3", net, err, 8); err != nil {
			return nil, err
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		net, err := topo.RandomFeedforward(5, 8, 0.7, seed)
		if err := add(fmt.Sprintf("randff-s%d", seed), net, err, 8); err != nil {
			return nil, err
		}
	}
	{
		// Demands are chosen to overlap: two flows converge on hub->l0
		// and hub->l1, and two share the l2->hub uplink, so the hub
		// ports actually multiplex (a one-flow-per-link star has zero
		// fluid delay and nothing to falsify).
		f := topo.StarFabric(4, 1, server.FIFO)
		net, err := f.Network([]topo.Demand{
			fabricDemand("d10", "l1", "l0"),
			fabricDemand("d20", "l2", "l0"),
			fabricDemand("d01", "l0", "l1"),
			fabricDemand("d31", "l3", "l1"),
			fabricDemand("d23", "l2", "l3"),
		})
		if err := add("star4", net, err, 8); err != nil {
			return nil, err
		}
	}
	{
		// The smallest fat-tree (k=2: 8 link servers) with two hosts per
		// edge switch, so uplinks and core downlinks genuinely multiplex.
		net, err := topo.FatTree(2, 2, 0.5)
		if err := add("fattree2", net, err, 8); err != nil {
			return nil, err
		}
	}
	{
		// The k=4 folded Clos: 64 link servers, 16 host flows hashed
		// across two aggregation and four core choices.
		net, err := topo.Clos(4, 0.6)
		if err := add("clos4", net, err, 8); err != nil {
			return nil, err
		}
	}
	{
		// A unit-rate FIFO pair crossed by one large uncapped burst at each
		// server: the through connection's worst case needs the second
		// burst released when its own first-hop delay has passed, the
		// opening move of the staggered start.
		fifo := server.Server{Capacity: 1, Discipline: server.FIFO}
		net := &topo.Network{
			Servers: []server.Server{fifo, fifo},
			Connections: []topo.Connection{
				{Name: "A", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, Path: []int{0, 1}},
				{Name: "X1", Bucket: traffic.TokenBucket{Sigma: 5, Rho: 0.1}, Path: []int{0}},
				{Name: "X2", Bucket: traffic.TokenBucket{Sigma: 5, Rho: 0.1}, Path: []int{1}},
			},
		}
		if err := add("burstycross2", net, nil, 8); err != nil {
			return nil, err
		}
	}
	{
		f := topo.LineFabric(4, 1, server.FIFO)
		net, err := f.Network([]topo.Demand{
			fabricDemand("fwd", "n0", "n3"),
			fabricDemand("mid", "n1", "n3"),
			fabricDemand("rev", "n3", "n0"),
			fabricDemand("back", "n2", "n0"),
		})
		if err := add("line4", net, err, 8); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fabricDemand is the uniform token-bucket demand the fabric scenarios
// use: unit burst at a fifth of the line rate.
func fabricDemand(name, from, to string) topo.Demand {
	return topo.Demand{
		Name: name, From: from, To: to,
		Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.2},
		AccessRate: 1,
	}
}

// FilterMatrix keeps the scenarios whose name contains any of the
// comma-separated substrings (case-insensitive); an empty filter keeps
// everything.
func FilterMatrix(scenarios []Scenario, filter string) []Scenario {
	filter = strings.TrimSpace(filter)
	if filter == "" {
		return scenarios
	}
	var pats []string
	for _, p := range strings.Split(filter, ",") {
		if p = strings.ToLower(strings.TrimSpace(p)); p != "" {
			pats = append(pats, p)
		}
	}
	var out []Scenario
	for _, sc := range scenarios {
		name := strings.ToLower(sc.Name)
		for _, p := range pats {
			if strings.Contains(name, p) {
				out = append(out, sc)
				break
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
