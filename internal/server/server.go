// Package server models the packet servers (switch output ports) of the
// network: their capacity and their scheduling discipline. The paper's
// analysis targets FIFO multiplexors; static-priority and guaranteed-rate
// servers are supported as the extensions the paper announces.
package server

import "fmt"

// Discipline identifies the scheduling policy of a server.
type Discipline int

const (
	// FIFO serves packets in arrival order across all connections.
	FIFO Discipline = iota
	// StaticPriority serves the highest-priority backlogged class first;
	// within a class, FIFO order applies. Lower numeric priority values
	// are served first.
	StaticPriority
	// GuaranteedRate models a fair-queueing-like server that offers each
	// connection a rate-latency service curve (rate = its reserved rate,
	// latency = MaxUnit/Capacity-style scheduling latency).
	GuaranteedRate
	// EDF serves the packet whose local (per-hop) deadline expires first.
	// Connections need an end-to-end Deadline, split evenly over their
	// hops.
	EDF
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "FIFO"
	case StaticPriority:
		return "StaticPriority"
	case GuaranteedRate:
		return "GuaranteedRate"
	case EDF:
		return "EDF"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Valid reports whether d is a known discipline.
func (d Discipline) Valid() bool {
	return d >= FIFO && d <= EDF
}

// Server is one store-and-forward multiplexing point (an output port of a
// switch) with a fixed outgoing capacity.
type Server struct {
	Name       string
	Capacity   float64 // outgoing line rate, bits per second
	Discipline Discipline
	// Latency is a fixed processing/propagation latency added to every
	// packet regardless of queueing (0 for the paper's model).
	Latency float64
}

// Validate reports whether the server parameters are usable.
func (s Server) Validate() error {
	if s.Capacity <= 0 {
		return fmt.Errorf("server %q: non-positive capacity %g", s.Name, s.Capacity)
	}
	if s.Latency < 0 {
		return fmt.Errorf("server %q: negative latency %g", s.Name, s.Latency)
	}
	if !s.Discipline.Valid() {
		return fmt.Errorf("server %q: unknown discipline %d", s.Name, int(s.Discipline))
	}
	return nil
}
