// Package delaycalc computes deterministic worst-case end-to-end delay
// bounds for connections in feedforward packet networks, reproducing and
// extending "New Delay Analysis in High Speed Networks" (Li, Bettati,
// Zhao; ICPP 1999).
//
// The package offers three analyses of FIFO networks:
//
//   - Decomposed — Cruz's per-server decomposition with burstiness
//     propagation (simple, general, pessimistic);
//   - ServiceCurve — the induced-service-curve method (leftover curves
//     convolved into a network service curve; poor for FIFO, which is the
//     paper's point);
//   - Integrated — the paper's contribution: subnetworks of up to two
//     servers analyzed jointly, so through traffic does not pay both local
//     worst cases ("pay bursts only once" per pair).
//
// plus the extensions the paper announces (static-priority and
// guaranteed-rate servers), an admission controller built on any analyzer,
// and a discrete-event packet simulator that validates every bound.
//
// # Quick start
//
//	net, _ := delaycalc.PaperTandem(4, 0.8) // 4 switches, 80% load
//	res, _ := delaycalc.NewIntegrated().Analyze(net)
//	fmt.Println(res.Bound(0)) // worst-case delay of the longest connection
//
// See examples/ for complete programs and DESIGN.md for the system map.
package delaycalc

import (
	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/sim"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// Core model types.
type (
	// Network is a set of servers plus connections with fixed routes.
	Network = topo.Network
	// Connection is one token-bucket-regulated flow with a route.
	Connection = topo.Connection
	// Server is one multiplexing point (switch output port).
	Server = server.Server
	// Discipline selects a server's scheduling policy.
	Discipline = server.Discipline
	// TokenBucket is a (sigma, rho) source regulator.
	TokenBucket = traffic.TokenBucket
	// TSpec is a peak-rate-limited token bucket.
	TSpec = traffic.TSpec
	// Trace is a recorded VBR frame trace; its Envelope and
	// FitTokenBucket methods derive analyzable source models.
	Trace = traffic.Trace
)

// SyntheticGOP builds a deterministic MPEG-like frame trace (I/P/B
// structure) for exercising VBR-video envelopes without real trace data.
func SyntheticGOP(gops, gopLen int, iSize, pSize, bSize, interval float64) Trace {
	return traffic.SyntheticGOP(gops, gopLen, iSize, pSize, bSize, interval)
}

// Scheduling disciplines.
const (
	FIFO           = server.FIFO
	StaticPriority = server.StaticPriority
	GuaranteedRate = server.GuaranteedRate
	EDF            = server.EDF
)

// Analysis types.
type (
	// Analyzer computes per-connection end-to-end delay bounds.
	Analyzer = analysis.Analyzer
	// Result holds the delay and buffer bounds of one analysis.
	Result = analysis.Result
	// Stage is one subnetwork's contribution to a bound; a baseline of the
	// analysis (Analyzer.NewBaseline) lists them with its Stages method.
	Stage = analysis.Stage
)

// NewDecomposed returns the classical decomposition-based analyzer
// (the paper's Algorithm Decomposed).
func NewDecomposed() Analyzer { return analysis.Decomposed{} }

// NewServiceCurve returns the induced-service-curve analyzer for FIFO
// networks (the paper's Algorithm Service Curve).
func NewServiceCurve() Analyzer { return analysis.ServiceCurve{} }

// NewIntegrated returns the paper's Algorithm Integrated: two-server
// subnetworks analyzed jointly, on FIFO networks and, per priority class,
// on static-priority ones.
func NewIntegrated() Analyzer { return analysis.Integrated{} }

// NewIntegratedChains returns the Integrated analyzer with subnetworks of
// up to maxServers consecutive servers — the "general networks" extension
// of the paper's conclusion. maxServers = 2 reproduces the paper; larger
// values trade analysis time for tighter bounds on long paths.
func NewIntegratedChains(maxServers int) Analyzer {
	return analysis.Integrated{ChainLength: maxServers}
}

// NewGuaranteedRateNetworkCurve returns the network-service-curve analyzer
// for guaranteed-rate (WFQ-like) networks, where the service-curve method
// is tight.
func NewGuaranteedRateNetworkCurve() Analyzer { return analysis.GuaranteedRateNetworkCurve{} }

// Physical topology modeling.
type (
	// Fabric is a physical topology of nodes and directed links; each
	// link materializes as one analyzable server.
	Fabric = topo.Fabric
	// Link is one directed edge of a Fabric.
	Link = topo.Link
	// Demand is a requested connection between fabric nodes, routed over
	// a fewest-hop path.
	Demand = topo.Demand
)

// LineFabric builds a bidirectional line of n nodes.
func LineFabric(n int, capacity float64, d Discipline) *Fabric {
	return topo.LineFabric(n, capacity, d)
}

// StarFabric builds a hub-and-spoke fabric with the given number of leaves.
func StarFabric(leaves int, capacity float64, d Discipline) *Fabric {
	return topo.StarFabric(leaves, capacity, d)
}

// Topology builders.

// PaperTandem builds the paper's evaluation network: n 3x3 switches in a
// chain, 2n+1 token-bucket connections, interior links loaded to the given
// utilization.
func PaperTandem(n int, load float64) (*Network, error) { return topo.PaperTandem(n, load) }

// ParkingLot builds a main connection over n servers with one single-hop
// cross connection per server.
func ParkingLot(n int, sigma, rho, capacity float64) (*Network, error) {
	return topo.ParkingLot(n, sigma, rho, capacity)
}

// SinkTree builds a balanced binary aggregation tree of the given depth.
func SinkTree(depth int, sigma, rho, capacity float64) (*Network, error) {
	return topo.SinkTree(depth, sigma, rho, capacity)
}

// RandomFeedforward builds a random acyclic network with bounded
// utilization, useful for fuzzing and capacity studies.
func RandomFeedforward(nServers, nConns int, util float64, seed int64) (*Network, error) {
	return topo.RandomFeedforward(nServers, nConns, util, seed)
}

// Admission control.

// AdmissionController tests and admits connections against deadlines.
type AdmissionController = admission.Controller

// AdmissionDecision reports an admission test's outcome.
type AdmissionDecision = admission.Decision

// NewAdmissionController creates a controller over a server fabric using
// the given analyzer for its admission test.
func NewAdmissionController(servers []Server, a Analyzer) (*AdmissionController, error) {
	return admission.New(servers, a)
}

// Simulation.

type (
	// SimConfig controls a packet-level simulation run.
	SimConfig = sim.Config
	// SimResult holds observed delays from a simulation.
	SimResult = sim.Result
	// Source produces packet emission times for one connection.
	Source = sim.Source
	// GreedySource is the adversarial always-burst source.
	GreedySource = sim.GreedySource
	// OnOffSource alternates bursts and silences, bucket-conformant.
	OnOffSource = sim.OnOffSource
	// CBRSource emits at a constant rate.
	CBRSource = sim.CBRSource
	// TraceSource replays a recorded VBR frame trace periodically.
	TraceSource = sim.TraceSource
)

// Simulate runs the discrete-event packet simulator on the network.
func Simulate(net *Network, cfg SimConfig) (*SimResult, error) { return sim.Run(net, cfg) }

// WorstCaseHorizon suggests a simulation horizon covering every server's
// maximal busy period under greedy sources.
func WorstCaseHorizon(net *Network) float64 { return sim.WorstCaseHorizon(net) }

// Network spec I/O.

// DecodeSpec parses the JSON network format (see internal/netspec).
func DecodeSpec(data []byte) (*Network, error) { return netspec.Decode(data) }

// EncodeSpec renders a network as JSON.
func EncodeSpec(net *Network) ([]byte, error) { return netspec.Encode(net) }
