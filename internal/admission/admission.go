// Package admission implements connection admission control (CAC), the
// application that motivates the paper: a new connection with a
// deterministic end-to-end deadline is admitted if and only if, with it
// added, the chosen delay analysis still proves every admitted connection's
// deadline. A tighter analysis therefore directly translates into more
// admitted connections at the same quality of service — the paper's
// utilization argument.
//
// The package has one engine and one oracle:
//
//   - ShardedEngine partitions the fabric into independent components at
//     any shard count, one included. Each shard is a goroutine-safe,
//     incremental controller over versioned immutable snapshots: every
//     analyzer has a baseline, so a test extends one, and the full analysis
//     is its one fallback, taken when no baseline can be had. ApplyBatch
//     (live) and TestBatch (dry run) are the engine's only write and test
//     entry points: a single admit, release or test is an envelope of one.
//     It is what service.State, the delayd daemon and the CLIs run.
//   - Controller is the deliberately naive reference: every test is a full
//     re-analysis of the trial network. The differential tests pin the
//     engine's decisions and bounds to it, and the public
//     delaycalc.AdmissionController is an alias for it. It is NOT
//     goroutine-safe: Admit, Remove, and FillGreedy mutate the admitted
//     set, and Admitted, Count, Test, and Utilization read it, all without
//     synchronization.
//
// Both apply one precheck before they analyze: a candidate needs a
// deadline to be tested against and a name to be released by.
package admission

import (
	"errors"
	"fmt"
	"math"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// Controller performs admission tests against a fixed server fabric.
type Controller struct {
	servers  []server.Server
	analyzer analysis.Analyzer
	admitted []topo.Connection
}

// New creates a controller over the given servers using the given
// analyzer for the admission test.
func New(servers []server.Server, analyzer analysis.Analyzer) (*Controller, error) {
	cp, err := checkFabric(servers, analyzer)
	if err != nil {
		return nil, err
	}
	return &Controller{servers: cp, analyzer: analyzer}, nil
}

// checkFabric validates the fabric and analyzer an admission controller or
// engine is built over, and returns its own copy of the servers.
func checkFabric(servers []server.Server, analyzer analysis.Analyzer) ([]server.Server, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("admission: no servers")
	}
	for i, s := range servers {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("admission: server %d: %w", i, err)
		}
	}
	if analyzer == nil {
		return nil, fmt.Errorf("admission: nil analyzer")
	}
	cp := make([]server.Server, len(servers))
	copy(cp, servers)
	return cp, nil
}

// Admitted returns a copy of the currently admitted connections.
func (c *Controller) Admitted() []topo.Connection {
	out := make([]topo.Connection, len(c.admitted))
	copy(out, c.admitted)
	return out
}

// Count returns the number of admitted connections.
func (c *Controller) Count() int { return len(c.admitted) }

// network materializes the current (or trial) connection set.
func (c *Controller) network(extra ...topo.Connection) *topo.Network {
	net := &topo.Network{Servers: c.servers}
	net.Connections = append(net.Connections, c.admitted...)
	net.Connections = append(net.Connections, extra...)
	return net
}

// Stable machine-readable rejection codes carried by Decision.Code and
// surfaced verbatim in the service API's error envelope.
const (
	// CodeDeadlineMissed marks a rejection because some connection's
	// delay bound would exceed its deadline; Violations lists them.
	CodeDeadlineMissed = "deadline_missed"
	// CodeUnstable marks a rejection because some server's long-run load
	// would reach its capacity.
	CodeUnstable = "unstable"
	// CodeInvalidSpec marks a candidate (or trial network) that failed
	// structural validation.
	CodeInvalidSpec = "invalid_spec"
)

// Violation identifies one connection whose deadline the trial network
// would miss, with the offending bound and the deadline as structured
// fields so callers never parse prose.
type Violation struct {
	// Connection is the connection's name ("connection i" when unnamed).
	Connection string
	// Bound is the post-admission delay bound (+Inf when unbounded).
	Bound float64
	// Deadline is the connection's requirement.
	Deadline float64
}

// Decision records the outcome of an admission test.
type Decision struct {
	Admitted bool
	// Code is a stable machine-readable rejection code (one of the Code*
	// constants); empty when admitted.
	Code string
	// Reason explains a rejection in prose.
	Reason string
	// Violations lists every connection whose deadline the trial network
	// would miss (only for CodeDeadlineMissed rejections).
	Violations []Violation
	// Bounds holds the post-admission delay bounds per connection
	// (admitted connections first, the candidate last) when the test ran.
	// An engine's decision shares it with the trial's analysis baseline:
	// read it, do not modify it.
	Bounds []float64
}

// evaluate derives the Decision for the analyzed trial connections conns,
// whose delay bounds are bounds (same indexing). It is the single decision
// rule shared by the Controller oracle and the engine's admission step, so
// the two can never diverge. The Decision keeps bounds as its Bounds.
func evaluate(conns []topo.Connection, bounds []float64) Decision {
	d := Decision{Bounds: bounds}
	for i, conn := range conns {
		if conn.Deadline <= 0 {
			continue
		}
		if math.IsInf(bounds[i], 1) || bounds[i] > conn.Deadline {
			name := conn.Name
			if name == "" {
				name = fmt.Sprintf("connection %d", i)
			}
			d.Violations = append(d.Violations, Violation{
				Connection: name,
				Bound:      bounds[i],
				Deadline:   conn.Deadline,
			})
		}
	}
	if len(d.Violations) > 0 {
		v := d.Violations[0]
		d.Code = CodeDeadlineMissed
		d.Reason = fmt.Sprintf("%s would miss its deadline: bound %.6g > %.6g", v.Connection, v.Bound, v.Deadline)
		return d
	}
	d.Admitted = true
	return d
}

// precheck is the rule every admission test applies before it analyzes: a
// candidate needs a deadline to be tested against and a name to be
// released by. It refuses one without either as CodeInvalidSpec.
func precheck(cand topo.Connection) (Decision, error) {
	if cand.Deadline <= 0 {
		return Decision{Code: CodeInvalidSpec, Reason: "candidate has no deadline"},
			fmt.Errorf("admission: candidate %q has no deadline", cand.Name)
	}
	if cand.Name == "" {
		return Decision{Code: CodeInvalidSpec, Reason: "candidate has no name"},
			errors.New("admission: candidate has no name")
	}
	return Decision{}, nil
}

// Test checks whether the candidate could be admitted without mutating the
// controller.
func (c *Controller) Test(cand topo.Connection) (Decision, error) {
	if d, err := precheck(cand); err != nil {
		return d, err
	}
	trial := c.network(cand)
	if err := trial.Validate(); err != nil {
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, err
	}
	if !trial.Stable() {
		return Decision{Code: CodeUnstable, Reason: "network would be unstable"}, nil
	}
	res, err := c.analyzer.Analyze(trial)
	if err != nil {
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, err
	}
	return evaluate(trial.Connections, res.Bounds), nil
}

// Admit runs Test and, on success, commits the candidate.
func (c *Controller) Admit(cand topo.Connection) (Decision, error) {
	d, err := c.Test(cand)
	if err != nil {
		return d, err
	}
	if d.Admitted {
		c.admitted = append(c.admitted, cand)
	}
	return d, nil
}

// Remove releases a previously admitted connection by name.
func (c *Controller) Remove(name string) bool {
	for i, conn := range c.admitted {
		if conn.Name == name {
			c.admitted = append(c.admitted[:i], c.admitted[i+1:]...)
			return true
		}
	}
	return false
}

// Utilization returns the per-server utilization of the admitted set.
func (c *Controller) Utilization() []float64 {
	return c.network().Utilization()
}

// FillGreedy admits copies of the template connection (numbered names)
// until the first rejection, returning how many were admitted. It is the
// measurement loop used to compare the admission capacity enabled by
// different analyzers.
func (c *Controller) FillGreedy(template topo.Connection, limit int) (int, error) {
	n := 0
	for n < limit {
		cand := template
		cand.Name = fmt.Sprintf("%s#%d", template.Name, c.Count())
		d, err := c.Admit(cand)
		if err != nil {
			return n, err
		}
		if !d.Admitted {
			return n, nil
		}
		n++
	}
	return n, nil
}
