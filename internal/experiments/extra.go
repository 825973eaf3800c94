package experiments

import (
	"fmt"
	"math"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/sim"
	"delaycalc/internal/textplot"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// ValidationSweep simulates the paper tandem with greedy sources and
// returns the observed worst delay of connection 0 next to the three
// analytic bounds — the soundness check the paper could not run (it had no
// simulator). Every bound series must dominate the simulation series.
func ValidationSweep(n int, loads []float64, packetSize float64) ([]textplot.Series, error) {
	names := sized(n, "Simulated", "Integrated", "Decomposed", "ServiceCurve")
	return sweep(orDefault(loads), names, func(u float64) ([]float64, error) {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(net, sim.Config{PacketSize: packetSize, Horizon: sim.WorstCaseHorizon(net)})
		if err != nil {
			return nil, err
		}
		return appendBounds([]float64{res.Stats[0].MaxDelay}, net,
			analysis.Integrated{}, analysis.Decomposed{}, analysis.ServiceCurve{})
	})
}

// DelayPercentileSweep simulates the paper tandem with per-packet sampling
// enabled and reports conn-0 delay percentiles (p50, p99, p100) next to
// the integrated bound: how far inside the worst-case envelope typical
// packets live. Sampling MUST be on here — sim.ConnStats.Percentile
// returns NaN without Config.KeepSamples, which would silently poison the
// table — and the guard below turns any residual NaN into an error instead
// of a corrupt figure.
func DelayPercentileSweep(n int, loads []float64, packetSize float64) ([]textplot.Series, error) {
	return sweep(orDefault(loads), sized(n, "p50", "p99", "p100", "Integrated"), func(u float64) ([]float64, error) {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(net, sim.Config{
			PacketSize: packetSize, Horizon: sim.WorstCaseHorizon(net), KeepSamples: true,
		})
		if err != nil {
			return nil, err
		}
		var ys []float64
		for _, p := range []float64{0.5, 0.99, 1} {
			v := res.Stats[0].Percentile(p)
			if math.IsNaN(v) {
				return nil, fmt.Errorf("percentile sweep: p%g is NaN at load %g (sampling disabled?)", 100*p, u)
			}
			ys = append(ys, v)
		}
		return appendBounds(ys, net, analysis.Integrated{})
	})
}

// AblationPairing quantifies the value of the two-server pairing: the same
// Integrated machinery with pairing disabled degenerates to decomposition.
// Returns the conn-0 bounds with and without pairing.
func AblationPairing(n int, loads []float64) ([]textplot.Series, error) {
	return sweep(orDefault(loads), sized(n, "Paired", "Singletons"), func(u float64) ([]float64, error) {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		return appendBounds(nil, net, analysis.Integrated{}, analysis.Integrated{ChainLength: 1})
	})
}

// GreedyGap compares, on the paper's two-multiplexor subsystem (Figure 1),
// the literal greedy-scenario evaluation of Lemma 4 against the sound
// residual-curve pair bound and the simulated worst case. It documents why
// the shipped analyzer does not use the greedy evaluation: the simulation
// can exceed it.
func GreedyGap(loads []float64) ([]textplot.Series, error) {
	return sweep(orDefault(loads), []string{"Simulated", "GreedyLemma4", "Integrated"}, func(u float64) ([]float64, error) {
		net, err := topo.PaperTandem(2, u)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(net, sim.Config{PacketSize: 0.01, Horizon: sim.WorstCaseHorizon(net)})
		if err != nil {
			return nil, err
		}
		// Subsystem envelopes as the analyzer sees them: everything fresh,
		// one connection alone and two together at each multiplexor.
		one := traffic.TokenBucket{Sigma: 1, Rho: u / 4}.EnvelopeCapped(1)
		two := minplus.Sum(one, one)
		est := analysis.GreedyPairEstimate(two, one, two, 1, 1)
		return appendBounds([]float64{res.Stats[0].MaxDelay, est}, net, analysis.Integrated{})
	})
}

// GuaranteedRateComparison reproduces the paper's Section 1.2 observation:
// for guaranteed-rate servers the network-service-curve method is the
// right tool and clearly beats per-hop decomposition. It returns conn-0
// bounds for a WFQ tandem under both methods.
func GuaranteedRateComparison(n int, loads []float64) ([]textplot.Series, error) {
	return sweep(orDefault(loads), sized(n, "NetworkCurve", "Decomposed"), func(u float64) ([]float64, error) {
		net, err := topo.Tandem(topo.TandemSpec{
			Switches: n, Sigma: 1, Rho: u / 4, Capacity: 1,
			Discipline: server.GuaranteedRate,
		})
		if err != nil {
			return nil, err
		}
		// A WFQ server needs a scheduling latency and per-connection
		// reservations; an interior link carries at most four
		// connections, so give each a fair quarter of the capacity
		// (which always covers its sustained rate U/4 < 1/4).
		for i := range net.Servers {
			net.Servers[i].Latency = 0.1
		}
		for i := range net.Connections {
			net.Connections[i].Rate = 0.25
		}
		return appendBounds(nil, net, analysis.GuaranteedRateNetworkCurve{}, analysis.Decomposed{})
	})
}

// StaticPriorityExperiment runs the paper's announced extension on a
// static-priority tandem where connection 0 is the LOW-priority bulk
// class (the interesting case: the urgent class gets near-zero bounds
// regardless of method). Returns conn-0 bounds under SP decomposition,
// the integrated SP analysis, and plain FIFO for contrast.
func StaticPriorityExperiment(n int, loads []float64) ([]textplot.Series, error) {
	return sweep(orDefault(loads), sized(n, "SP decomposed", "SP integrated", "FIFO conn0"), func(u float64) ([]float64, error) {
		spec := topo.TandemSpec{
			Switches: n, Sigma: 1, Rho: u / 4, Capacity: 1,
			Discipline: server.StaticPriority, Priority0: 1, PriorityCross: 0,
		}
		net, err := topo.Tandem(spec)
		if err != nil {
			return nil, err
		}
		ys, err := appendBounds(nil, net, analysis.Decomposed{}, analysis.Integrated{})
		if err != nil {
			return nil, err
		}
		return appendFIFOBound(ys, spec)
	})
}

// appendFIFOBound appends the decomposed conn-0 bound of spec's tandem
// under plain FIFO, the contrast of the scheduling extensions, to ys.
func appendFIFOBound(ys []float64, spec topo.TandemSpec) ([]float64, error) {
	spec.Discipline = server.FIFO
	net, err := topo.Tandem(spec)
	if err != nil {
		return nil, err
	}
	return appendBounds(ys, net, analysis.Decomposed{})
}

// EDFExperiment compares, on the tandem workload, the bound of an urgent
// multi-hop connection under EDF scheduling against FIFO: EDF lets the
// urgent connection buy a tight bound at the cross traffic's expense,
// provided the deadline assignment stays schedulable. Series: the urgent
// conn-0 EDF bound, a cross connection's EDF bound, and the FIFO conn-0
// bound.
func EDFExperiment(n int, loads []float64) ([]textplot.Series, error) {
	return sweep(orDefault(loads), sized(n, "EDF conn0", "EDF cross", "FIFO conn0"), func(u float64) ([]float64, error) {
		spec := topo.TandemSpec{
			Switches: n, Sigma: 1, Rho: u / 4, Capacity: 1,
			Discipline: server.EDF,
		}
		net, err := topo.Tandem(spec)
		if err != nil {
			return nil, err
		}
		// Deadline assignment: conn 0 urgent (2 per hop), cross traffic
		// relaxed (12 per hop).
		for i := range net.Connections {
			hops := float64(len(net.Connections[i].Path))
			if i == 0 {
				net.Connections[i].Deadline = 2 * hops
			} else {
				net.Connections[i].Deadline = 12 * hops
			}
		}
		re, err := (analysis.Decomposed{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		return appendFIFOBound([]float64{re.Bound(0), re.Bound(2)}, spec)
	})
}

// ChainLengthSweep quantifies the value of longer integrated chains on a
// deep tandem: conn-0 bounds for chain lengths 1 (decomposed), 2 (the
// paper), and the full path.
func ChainLengthSweep(n int, loads []float64) ([]textplot.Series, error) {
	var names []string
	var analyzers []analysis.Analyzer
	for _, L := range []int{1, 2, n} {
		names = append(names, fmt.Sprintf("ChainLength=%d", L))
		analyzers = append(analyzers, analysis.Integrated{ChainLength: L})
	}
	return sweep(orDefault(loads), sized(n, names...), func(u float64) ([]float64, error) {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		return appendBounds(nil, net, analyzers...)
	})
}

// AdmissionCapacity measures the paper's motivating quantity directly: how
// many identical deadline-bearing connections each analysis can prove
// schedulable on an n-server tandem, as a function of the deadline. A
// tighter analysis admits more connections at the same quality of service.
func AdmissionCapacity(n int, deadlines []float64, limit int) ([]textplot.Series, error) {
	if len(deadlines) == 0 {
		deadlines = []float64{6, 8, 10, 14, 20, 30}
	}
	servers := make([]server.Server, n)
	path := make([]int, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
		path[i] = i
	}
	analyzers := []analysis.Analyzer{analysis.Decomposed{}, analysis.ServiceCurve{}, analysis.Integrated{}}
	return sweep(deadlines, sized(n, "Decomposed", "ServiceCurve", "Integrated"), func(deadline float64) ([]float64, error) {
		template := topo.Connection{
			Name:       "flow",
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.02},
			AccessRate: 1,
			Path:       path,
			Deadline:   deadline,
		}
		var counts []float64
		for _, a := range analyzers {
			ctrl, err := admission.New(servers, a)
			if err != nil {
				return nil, err
			}
			count, err := ctrl.FillGreedy(template, limit)
			if err != nil {
				return nil, err
			}
			counts = append(counts, float64(count))
		}
		return counts, nil
	})
}
