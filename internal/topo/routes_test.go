package topo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// validateSerial is Validate as one plain serial pass: every server in
// index order, then every connection, then the feedforward property, the
// cycle found by a quadratic smallest-ready-first sort of the route edges.
// It is the reference ValidateRoutes' concurrent checks are held to.
func validateSerial(n *Network) error {
	if len(n.Servers) == 0 {
		return fmt.Errorf("topo: network has no servers")
	}
	names := map[string]bool{}
	for i, s := range n.Servers {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("topo: server %d: %w", i, err)
		}
		if s.Name != "" && names[s.Name] {
			return fmt.Errorf("topo: duplicate server name %q", s.Name)
		}
		names[s.Name] = true
	}
	names = map[string]bool{}
	for i, c := range n.Connections {
		if err := c.Validate(len(n.Servers)); err != nil {
			return fmt.Errorf("topo: connection %d: %w", i, err)
		}
		if c.Name != "" && names[c.Name] {
			return fmt.Errorf("topo: duplicate connection name %q", c.Name)
		}
		names[c.Name] = true
	}
	if naiveOrder(n) == nil {
		return fmt.Errorf("topo: connection routes induce a cycle; the network is not feedforward")
	}
	return nil
}

// naiveOrder is the canonical topological order of n's servers, taking the
// smallest ready server every time by a scan, or nil on a cycle.
func naiveOrder(n *Network) []int {
	indeg := make([]int, len(n.Servers))
	type edge struct{ from, to int }
	edges := map[edge]bool{}
	for _, c := range n.Connections {
		for i := 0; i+1 < len(c.Path); i++ {
			if e := (edge{c.Path[i], c.Path[i+1]}); !edges[e] {
				edges[e] = true
				indeg[e.to]++
			}
		}
	}
	var order []int
	for len(order) < len(n.Servers) {
		u := slices.Index(indeg, 0)
		if u < 0 {
			return nil
		}
		order = append(order, u)
		indeg[u] = -1
		for e := range edges {
			if e.from == u {
				indeg[e.to]--
			}
		}
	}
	return order
}

// permutedNet is a random feed-forward network with its servers relabelled
// by a random permutation, so its canonical order is not the identity and
// MinFirstOrder takes its ready set instead of the forward shortcut.
func permutedNet(t *testing.T, rng *rand.Rand, seed int64) *Network {
	t.Helper()
	net, err := RandomFeedforward(12, 40, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(len(net.Servers))
	servers := slices.Clone(net.Servers)
	for i, s := range net.Servers {
		servers[perm[i]] = s
	}
	net.Servers = servers
	for i := range net.Connections {
		path := slices.Clone(net.Connections[i].Path)
		for h, s := range path {
			path[h] = perm[s]
		}
		net.Connections[i].Path = path
		net.Connections[i].Bucket.Rho *= 0.5 + rng.Float64()
	}
	return net
}

// plantFault breaks net in one of the ways Validate reports: a bad server,
// a duplicate server name, a bad connection, a duplicate connection name,
// or a connection whose route closes a cycle.
func plantFault(rng *rand.Rand, net *Network) {
	ns, nc := len(net.Servers), len(net.Connections)
	switch rng.Intn(5) {
	case 0:
		s := &net.Servers[rng.Intn(ns)]
		if rng.Intn(2) == 0 {
			s.Capacity = 0
		} else {
			s.Latency = -1
		}
	case 1:
		net.Servers[rng.Intn(ns)].Name = net.Servers[rng.Intn(ns)].Name
	case 2:
		c := &net.Connections[rng.Intn(nc)]
		switch rng.Intn(4) {
		case 0:
			c.Bucket.Sigma = -1
		case 1:
			c.Path = append(slices.Clone(c.Path), ns+rng.Intn(3))
		case 2:
			c.Path = append(slices.Clone(c.Path), c.Path[0])
		default:
			c.Bucket.Rho = 2 * c.AccessRate
		}
	case 3:
		net.Connections[rng.Intn(nc)].Name = net.Connections[rng.Intn(nc)].Name
	default:
		for _, c := range net.Connections {
			if len(c.Path) >= 2 {
				back := c
				back.Name = fmt.Sprintf("back%d", rng.Int())
				back.Path = []int{c.Path[len(c.Path)-1], c.Path[0]}
				at := rng.Intn(nc + 1)
				net.Connections = slices.Insert(net.Connections, at, back)
				return
			}
		}
	}
}

// TestValidateMatchesSerialReference is the differential of ValidateRoutes'
// reordered checks: over networks carrying zero to three planted faults,
// at one core and two, its error is the serial reference's to the letter,
// and a valid network's routes are its graph's, index's and load's scratch
// builds.
func TestValidateMatchesSerialReference(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		for seed := int64(0); seed < 200; seed++ {
			net := permutedNet(t, rng, seed)
			faults := int(seed % 4)
			for range faults {
				plantFault(rng, net)
			}
			want := validateSerial(net)
			r, err := net.ValidateRoutes()
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("GOMAXPROCS=%d seed %d (%d faults): ValidateRoutes says %v, the serial pass %v", procs, seed, faults, err, want)
			}
			if err := net.Validate(); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("GOMAXPROCS=%d seed %d: Validate says %v, the serial pass %v", procs, seed, err, want)
			}
			if want == nil {
				requireRoutes(t, fmt.Sprintf("GOMAXPROCS=%d seed %d", procs, seed), net, r)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// requireRoutes holds r to scratch builds of net's routes: the smallest-
// ready-first order, the ConnectionIndex, the per-server rate sums folded
// in connection order and the stability verdict.
func requireRoutes(t *testing.T, label string, net *Network, r Routes) {
	t.Helper()
	if want := naiveOrder(net); !slices.Equal(r.Graph.Order(), want) {
		t.Fatalf("%s: order %v, smallest-ready-first %v", label, r.Graph.Order(), want)
	}
	if !slices.EqualFunc(r.Index, net.ConnectionIndex(), slices.Equal[[]int]) {
		t.Fatalf("%s: the routes' index differs from ConnectionIndex", label)
	}
	sum := make([]float64, len(net.Servers))
	for _, c := range net.Connections {
		for _, s := range c.Path {
			sum[s] += c.Bucket.Rho
		}
	}
	for s := range sum {
		if math.Float64bits(r.Load.Sum[s]) != math.Float64bits(sum[s]) {
			t.Fatalf("%s: load of server %d is %v, the connection-order fold %v", label, s, r.Load.Sum[s], sum[s])
		}
	}
	if r.Load.Unstable == net.Stable() {
		t.Fatalf("%s: load says unstable=%t, Stable says %t", label, r.Load.Unstable, net.Stable())
	}
}

// TestLoadFollowsTrials walks a network through appended and removed
// connections, some of which overload a server, and holds the derived load
// (Load.Extend, whose verdict is StableWith's, and Load.Shrink) to the
// scratch routes of every step, bit for bit, and its verdict to Stable.
func TestLoadFollowsTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := permutedNet(t, rng, 3)
	load := NewRoutes(net).Load
	for step := 0; step < 300; step++ {
		if rng.Intn(3) > 0 || len(net.Connections) < 2 {
			cand := net.Connections[rng.Intn(len(net.Connections))]
			cand.Bucket.Rho *= 0.2 + 2*rng.Float64()
			load = load.Extend(net.Servers, cand)
			net = &Network{Servers: net.Servers, Connections: append(slices.Clone(net.Connections), cand)}
		} else {
			i := rng.Intn(len(net.Connections))
			gone := net.Connections[i]
			net = &Network{Servers: net.Servers, Connections: slices.Delete(slices.Clone(net.Connections), i, i+1)}
			load = load.Shrink(net, net.ConnectionIndex(), gone)
		}
		requireRoutes(t, fmt.Sprintf("step %d", step), net, Routes{Graph: NewGraph(net), Index: net.ConnectionIndex(), Load: load})
	}
}
