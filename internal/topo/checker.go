package topo

import "fmt"

// Checker validates one-connection extensions of a known-valid network in
// O(candidate) time instead of the O(network) full re-validation, by
// reusing the facts an extension cannot invalidate: the servers and the
// existing connections were already validated, and the cached topological
// order witnesses the feedforward property for every existing route.
//
// The fast path is exact, not approximate: ValidateExtend returns nil or
// precisely the error Network.Validate would return on the extended
// network. The one case that cannot be decided locally — the candidate's
// route disagrees with the cached witness order, which may or may not be a
// cycle — falls back to the full validation.
//
// A Checker is immutable and safe for concurrent use.
type Checker struct {
	nServers int
	nConns   int
	// pos maps each server to its position in a witness topological order
	// of the checker's network. The slice is shared across Extend/Shrink
	// derivations and never written after construction.
	pos []int
	// names holds the non-empty connection names in the network.
	names nameSet
}

// nameSet is a persistent set of names: an immutable base map shared along
// a derivation chain, plus the chain's latest changes, newest last. A
// derivation copies only the changes, and once maxNameDeltas of them have
// piled up they are folded into a fresh base — O(names/maxNameDeltas)
// amortised per derivation instead of a whole-map copy on every trial.
type nameSet struct {
	base   map[string]bool
	deltas []nameDelta
}

type nameDelta struct {
	name    string
	present bool
}

const maxNameDeltas = 32

func (s nameSet) has(name string) bool {
	for i := len(s.deltas) - 1; i >= 0; i-- {
		if s.deltas[i].name == name {
			return s.deltas[i].present
		}
	}
	return s.base[name]
}

// with returns the set with name added or removed; the empty name is
// never a member.
func (s nameSet) with(name string, present bool) nameSet {
	if name == "" {
		return s
	}
	deltas := append(s.deltas[:len(s.deltas):len(s.deltas)], nameDelta{name, present})
	if len(deltas) <= maxNameDeltas {
		return nameSet{base: s.base, deltas: deltas}
	}
	base := make(map[string]bool, len(s.base)+len(deltas))
	for n := range s.base {
		base[n] = true
	}
	for _, d := range deltas {
		if d.present {
			base[d.name] = true
		} else {
			delete(base, d.name)
		}
	}
	return nameSet{base: base}
}

// NewChecker builds a Checker over a network that already passed
// Network.Validate, recomputing only the topological-order witness. The
// network must not be mutated afterwards; appending to a copy of its
// connection slice (how the analysis and admission layers build trials)
// is fine.
func NewChecker(n *Network) (*Checker, error) {
	g := NewGraph(n)
	if _, err := g.feedforwardOrder(); err != nil {
		return nil, err
	}
	return newChecker(n, g, nil), nil
}

// NewCheckerFromRoutes is NewChecker for a caller that already holds the
// routes n.ValidateRoutes returned: the graph's order is the witness, and
// the checker takes over the validation's set of connection names.
func NewCheckerFromRoutes(n *Network, r Routes) *Checker {
	return newChecker(n, r.Graph, r.names)
}

// newChecker builds the checker of n whose route graph is g and whose
// non-empty connection names are names, collected afresh when nil.
func newChecker(n *Network, g *Graph, names map[string]bool) *Checker {
	pos := make([]int, len(n.Servers))
	for p, s := range g.order {
		pos[s] = p
	}
	if names == nil {
		names = make(map[string]bool, len(n.Connections))
		for _, c := range n.Connections {
			if c.Name != "" {
				names[c.Name] = true
			}
		}
	}
	return &Checker{nServers: len(n.Servers), nConns: len(n.Connections), pos: pos, names: nameSet{base: names}}
}

// ValidateExtend validates trial — the checker's network plus exactly one
// appended candidate — returning exactly what trial.Validate() would. The
// servers and existing connections are valid by construction, so only the
// candidate's self-consistency, a name collision, or a broken feedforward
// property can fail. A nil Checker degrades to the full validation.
func (k *Checker) ValidateExtend(trial *Network) error {
	if k == nil {
		return trial.Validate()
	}
	cand := trial.Connections[len(trial.Connections)-1]
	if err := cand.Validate(k.nServers); err != nil {
		return fmt.Errorf("topo: connection %d: %w", k.nConns, err)
	}
	if cand.Name != "" && k.names.has(cand.Name) {
		return fmt.Errorf("topo: duplicate connection name %q", cand.Name)
	}
	for i := 0; i+1 < len(cand.Path); i++ {
		if k.pos[cand.Path[i]] >= k.pos[cand.Path[i+1]] {
			// The route disagrees with the cached witness; another witness
			// may still exist, so this one case pays the full check.
			return trial.Validate()
		}
	}
	return nil
}

// Extend returns a checker for the extended network. Call it only after
// ValidateExtend(trial) returned nil. When the candidate's route follows
// the cached witness order, the witness carries over unchanged; otherwise
// it is recomputed once from the trial.
func (k *Checker) Extend(trial *Network) *Checker {
	if k == nil {
		return nil
	}
	cand := trial.Connections[len(trial.Connections)-1]
	nk := &Checker{nServers: k.nServers, nConns: k.nConns + 1, pos: k.pos, names: k.names.with(cand.Name, true)}
	for i := 0; i+1 < len(cand.Path); i++ {
		if k.pos[cand.Path[i]] >= k.pos[cand.Path[i+1]] {
			order, err := trial.TopologicalOrder()
			if err != nil {
				// The caller promised a validated trial; degrade to the
				// checker-less slow path rather than carry a bad witness.
				return nil
			}
			pos := make([]int, len(order))
			for p, s := range order {
				pos[s] = p
			}
			nk.pos = pos
			break
		}
	}
	return nk
}

// Shrink returns a checker for the network with the given connection
// removed: a subgraph of a feedforward network is feedforward, so the
// witness order carries over unchanged and only the name set shrinks.
func (k *Checker) Shrink(removed Connection) *Checker {
	if k == nil {
		return nil
	}
	return &Checker{nServers: k.nServers, nConns: k.nConns - 1, pos: k.pos, names: k.names.with(removed.Name, false)}
}
