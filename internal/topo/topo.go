// Package topo models the network under analysis: a set of servers (switch
// output ports), a set of connections with fixed routes across those
// servers, and the structural checks the paper's algorithms require —
// in particular that the connection routes are feedforward (cycle-free), a
// precondition of Algorithm Integrated stated in the paper's conclusion.
package topo

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"delaycalc/internal/minplus"
	"delaycalc/internal/par"
	"delaycalc/internal/server"
	"delaycalc/internal/traffic"
)

// Connection is one unidirectional flow with a token-bucket-regulated
// source and a fixed route through the network.
type Connection struct {
	Name   string
	Bucket traffic.TokenBucket
	// AccessRate caps how fast source traffic can physically enter the
	// network (the speed of the access line). Zero means uncapped (a pure
	// token-bucket burst arrives instantaneously).
	AccessRate float64
	// Path lists the indices (into Network.Servers) of the servers the
	// connection traverses, in order.
	Path []int
	// Priority is the static-priority class (lower = more urgent); only
	// meaningful at StaticPriority servers.
	Priority int
	// Rate is the reserved service rate at GuaranteedRate servers.
	Rate float64
	// Deadline is the end-to-end delay requirement used by admission
	// control; zero means best effort.
	Deadline float64
	// Envelope optionally replaces the token-bucket source model with an
	// arbitrary arrival curve, e.g. a trace-derived empirical envelope
	// (traffic.Trace.Envelope). When set, Bucket.Rho must equal the
	// envelope's long-run rate (its final slope), which keeps
	// utilization and stability accounting consistent.
	Envelope *minplus.Curve
}

// SourceEnvelope returns the arrival curve of the connection at its entry
// point: the custom envelope when one is set, otherwise the token bucket,
// in both cases limited by the access line rate (the pointwise minimum
// with the line is a valid — if slightly loose — model of the access
// multiplexing).
func (c Connection) SourceEnvelope() minplus.Curve {
	if c.Envelope != nil {
		env := *c.Envelope
		if c.AccessRate > 0 {
			env = minplus.Min(minplus.Rate(c.AccessRate), env)
		}
		return env
	}
	if c.AccessRate > 0 {
		return c.Bucket.EnvelopeCapped(c.AccessRate)
	}
	return c.Bucket.Envelope()
}

// Validate reports whether the connection is self-consistent against a
// server count.
func (c Connection) Validate(nServers int) error {
	if err := c.Bucket.Validate(); err != nil {
		return fmt.Errorf("connection %q: %w", c.Name, err)
	}
	if c.AccessRate < 0 {
		return fmt.Errorf("connection %q: negative access rate %g", c.Name, c.AccessRate)
	}
	if c.AccessRate > 0 && c.Bucket.Rho > c.AccessRate {
		return fmt.Errorf("connection %q: sustained rate %g exceeds access rate %g", c.Name, c.Bucket.Rho, c.AccessRate)
	}
	if len(c.Path) == 0 {
		return fmt.Errorf("connection %q: empty path", c.Name)
	}
	for i, s := range c.Path {
		if s < 0 || s >= nServers {
			return fmt.Errorf("connection %q: path references server %d of %d", c.Name, s, nServers)
		}
		// A route visits each server at most once, so it is short enough
		// that comparing each hop with the hops before it beats any set.
		if slices.Contains(c.Path[:i], s) {
			return fmt.Errorf("connection %q: path visits server %d twice", c.Name, s)
		}
	}
	if c.Rate < 0 {
		return fmt.Errorf("connection %q: negative reserved rate %g", c.Name, c.Rate)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("connection %q: negative deadline %g", c.Name, c.Deadline)
	}
	if c.Envelope != nil {
		if !c.Envelope.IsNonDecreasing() {
			return fmt.Errorf("connection %q: custom envelope must be non-decreasing", c.Name)
		}
		if math.Abs(c.Envelope.FinalSlope()-c.Bucket.Rho) > 1e-9*(1+math.Abs(c.Bucket.Rho)) {
			return fmt.Errorf("connection %q: envelope long-run rate %g disagrees with Bucket.Rho %g",
				c.Name, c.Envelope.FinalSlope(), c.Bucket.Rho)
		}
	}
	return nil
}

// Network is the complete model handed to an analyzer.
type Network struct {
	Servers     []server.Server
	Connections []Connection
}

// Validate checks servers, connections, and the feedforward property.
func (n *Network) Validate() error {
	_, err := n.ValidateRoutes()
	return err
}

// ValidateRoutes is Validate handing back the Routes it built for the
// feedforward check, so a caller that goes on to order or partition the
// network derives none of it a second time.
//
// The error is the first a serial pass meets: every server in index order
// (its own checks, then its name), then every connection likewise, then the
// feedforward property. The server and connection checks are that serial
// pass, and they read nothing the route pass writes, so they run beside it
// (par.Beside); the route pass may then see an invalid network, whose
// routes are discarded.
func (n *Network) ValidateRoutes() (Routes, error) {
	if len(n.Servers) == 0 {
		return Routes{}, fmt.Errorf("topo: network has no servers")
	}
	var (
		names map[string]bool
		err   error
	)
	wait := par.Beside(func() {
		if err = n.checkServers(); err == nil {
			names, err = n.checkConnections()
		}
	})
	r, _ := newRoutes(n)
	if wait(); err != nil {
		return Routes{}, err
	}
	if _, err := r.Graph.feedforwardOrder(); err != nil {
		return Routes{}, err
	}
	r.names = names
	return r, nil
}

// checkServers checks every server in index order, its name after its own
// checks.
func (n *Network) checkServers() error {
	names := make(map[string]bool, len(n.Servers))
	for i, s := range n.Servers {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("topo: server %d: %w", i, err)
		}
		if s.Name != "" {
			if names[s.Name] {
				return fmt.Errorf("topo: duplicate server name %q", s.Name)
			}
			names[s.Name] = true
		}
	}
	return nil
}

// checkConnections checks every connection in index order, its name after
// its own checks, and returns the set of non-empty names.
func (n *Network) checkConnections() (map[string]bool, error) {
	names := make(map[string]bool, len(n.Connections))
	for i, c := range n.Connections {
		if err := c.Validate(len(n.Servers)); err != nil {
			return nil, fmt.Errorf("topo: connection %d: %w", i, err)
		}
		if c.Name != "" {
			if names[c.Name] {
				return nil, fmt.Errorf("topo: duplicate connection name %q", c.Name)
			}
			names[c.Name] = true
		}
	}
	return names, nil
}

// ConnectionsAt returns the indices of connections whose path includes
// server s.
func (n *Network) ConnectionsAt(s int) []int {
	var out []int
	for i, c := range n.Connections {
		for _, hop := range c.Path {
			if hop == s {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// ConnectionIndex returns, for every server, the indices of the
// connections whose path includes it, in increasing connection order: the
// batch form of ConnectionsAt, computed in one pass over all routes.
// Analyzers that need the relation at many servers use it instead of
// per-server ConnectionsAt scans, which cost O(connections x path length)
// each.
func (n *Network) ConnectionIndex() [][]int {
	// Counting sort into one flat backing array: per-server rows come out
	// in increasing connection order (routes never repeat a server), in
	// four allocations total instead of per-row append growth.
	start := make([]int, len(n.Servers)+1)
	for _, c := range n.Connections {
		for _, s := range c.Path {
			start[s+1]++
		}
	}
	for s := 1; s <= len(n.Servers); s++ {
		start[s] += start[s-1]
	}
	flat := make([]int, start[len(n.Servers)])
	cur := make([]int, len(n.Servers))
	copy(cur, start)
	for i, c := range n.Connections {
		for _, s := range c.Path {
			flat[cur[s]] = i
			cur[s]++
		}
	}
	idx := make([][]int, len(n.Servers))
	for s := range idx {
		idx[s] = flat[start[s]:start[s+1]:start[s+1]]
	}
	return idx
}

// HopIndex returns the position of server s in connection c's path, or -1.
func (n *Network) HopIndex(c, s int) int {
	for i, hop := range n.Connections[c].Path {
		if hop == s {
			return i
		}
	}
	return -1
}

// TopologicalOrder returns the servers sorted so that every connection
// visits them in increasing order, or an error when the route graph has a
// cycle (the network is not feedforward). Ties are broken by server index
// for determinism.
func (n *Network) TopologicalOrder() ([]int, error) {
	return NewGraph(n).feedforwardOrder()
}

// feedforwardOrder is Order with the cycle reported as Validate words it.
func (g *Graph) feedforwardOrder() ([]int, error) {
	if g.order == nil {
		return nil, fmt.Errorf("topo: connection routes induce a cycle; the network is not feedforward")
	}
	return g.order, nil
}

// IsFeedforward reports whether the route graph is acyclic.
func (n *Network) IsFeedforward() bool {
	_, err := n.TopologicalOrder()
	return err == nil
}

// Utilization returns, per server, the sum of sustained rates crossing it
// divided by its capacity.
func (n *Network) Utilization() []float64 {
	u := make([]float64, len(n.Servers))
	for _, c := range n.Connections {
		for _, s := range c.Path {
			u[s] += c.Bucket.Rho
		}
	}
	for i := range u {
		u[i] /= n.Servers[i].Capacity
	}
	return u
}

// Stable reports whether every server's long-run input rate is strictly
// below its capacity, the basic feasibility condition for finite delay
// bounds.
func (n *Network) Stable() bool {
	for _, u := range n.Utilization() {
		if u >= 1 {
			return false
		}
	}
	return true
}

// MaxUtilization returns the highest per-server utilization.
func (n *Network) MaxUtilization() float64 {
	m := 0.0
	for _, u := range n.Utilization() {
		if u > m {
			m = u
		}
	}
	return m
}

// DOT renders the route graph in Graphviz format: servers as boxes, one
// edge per consecutive hop pair, labeled with the connections using it.
func (n *Network) DOT() string {
	var b strings.Builder
	b.WriteString("digraph network {\n  rankdir=LR;\n")
	for i, s := range n.Servers {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("S%d", i)
		}
		fmt.Fprintf(&b, "  s%d [shape=box,label=%q];\n", i, fmt.Sprintf("%s\nC=%g %s", name, s.Capacity, s.Discipline))
	}
	type edgeKey struct{ u, v int }
	labels := make(map[edgeKey][]string)
	for ci, c := range n.Connections {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("c%d", ci)
		}
		for i := 0; i+1 < len(c.Path); i++ {
			k := edgeKey{c.Path[i], c.Path[i+1]}
			labels[k] = append(labels[k], name)
		}
	}
	keys := make([]edgeKey, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", k.u, k.v, strings.Join(labels[k], ","))
	}
	b.WriteString("}\n")
	return b.String()
}
