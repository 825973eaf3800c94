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
	if loads == nil {
		loads = DefaultLoads
	}
	simS := textplot.Series{Name: fmt.Sprintf("Simulated(%d)", n)}
	analyzers := []analysis.Analyzer{analysis.Integrated{}, analysis.Decomposed{}, analysis.ServiceCurve{}}
	bounds := make([]textplot.Series, len(analyzers))
	for i, a := range analyzers {
		bounds[i] = textplot.Series{Name: fmt.Sprintf("%s(%d)", a.Name(), n)}
	}
	for _, u := range loads {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(net, sim.Config{PacketSize: packetSize, Horizon: sim.WorstCaseHorizon(net)})
		if err != nil {
			return nil, err
		}
		simS.X = append(simS.X, u)
		simS.Y = append(simS.Y, res.Stats[0].MaxDelay)
		for i, a := range analyzers {
			r, err := a.Analyze(net)
			if err != nil {
				return nil, err
			}
			bounds[i].X = append(bounds[i].X, u)
			bounds[i].Y = append(bounds[i].Y, r.Bound(0))
		}
	}
	return append([]textplot.Series{simS}, bounds...), nil
}

// DelayPercentileSweep simulates the paper tandem with per-packet sampling
// enabled and reports conn-0 delay percentiles (p50, p99, p100) next to
// the integrated bound: how far inside the worst-case envelope typical
// packets live. Sampling MUST be on here — sim.ConnStats.Percentile
// returns NaN without Config.KeepSamples, which would silently poison the
// table — and the guard below turns any residual NaN into an error instead
// of a corrupt figure.
func DelayPercentileSweep(n int, loads []float64, packetSize float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	p50 := textplot.Series{Name: fmt.Sprintf("p50(%d)", n)}
	p99 := textplot.Series{Name: fmt.Sprintf("p99(%d)", n)}
	p100 := textplot.Series{Name: fmt.Sprintf("p100(%d)", n)}
	bound := textplot.Series{Name: fmt.Sprintf("Integrated(%d)", n)}
	for _, u := range loads {
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
		st := res.Stats[0]
		for _, q := range []struct {
			s *textplot.Series
			p float64
		}{{&p50, 0.5}, {&p99, 0.99}, {&p100, 1}} {
			v := st.Percentile(q.p)
			if math.IsNaN(v) {
				return nil, fmt.Errorf("percentile sweep: p%g is NaN at load %g (sampling disabled?)", 100*q.p, u)
			}
			q.s.X = append(q.s.X, u)
			q.s.Y = append(q.s.Y, v)
		}
		r, err := (analysis.Integrated{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		bound.X = append(bound.X, u)
		bound.Y = append(bound.Y, r.Bound(0))
	}
	return []textplot.Series{p50, p99, p100, bound}, nil
}

// AblationPairing quantifies the value of the two-server pairing: the same
// Integrated machinery with pairing disabled degenerates to decomposition.
// Returns the conn-0 bounds with and without pairing.
func AblationPairing(n int, loads []float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	paired := textplot.Series{Name: fmt.Sprintf("Paired(%d)", n)}
	single := textplot.Series{Name: fmt.Sprintf("Singletons(%d)", n)}
	for _, u := range loads {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		rp, err := (analysis.Integrated{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		rs, err := (analysis.Integrated{ChainLength: 1}).Analyze(net)
		if err != nil {
			return nil, err
		}
		paired.X = append(paired.X, u)
		paired.Y = append(paired.Y, rp.Bound(0))
		single.X = append(single.X, u)
		single.Y = append(single.Y, rs.Bound(0))
	}
	return []textplot.Series{paired, single}, nil
}

// GreedyGap compares, on the paper's two-multiplexor subsystem (Figure 1),
// the literal greedy-scenario evaluation of Lemma 4 against the sound
// residual-curve pair bound and the simulated worst case. It documents why
// the shipped analyzer does not use the greedy evaluation: the simulation
// can exceed it.
func GreedyGap(loads []float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	est := textplot.Series{Name: "GreedyLemma4"}
	sound := textplot.Series{Name: "Integrated"}
	simulated := textplot.Series{Name: "Simulated"}
	for _, u := range loads {
		net, err := topo.PaperTandem(2, u)
		if err != nil {
			return nil, err
		}
		// Subsystem envelopes as the analyzer sees them: everything fresh.
		rho := u / 4
		f12 := minplus.Sum(
			traffic.TokenBucket{Sigma: 1, Rho: rho}.EnvelopeCapped(1),
			traffic.TokenBucket{Sigma: 1, Rho: rho}.EnvelopeCapped(1),
		)
		f1 := traffic.TokenBucket{Sigma: 1, Rho: rho}.EnvelopeCapped(1)
		f2 := minplus.Sum(
			traffic.TokenBucket{Sigma: 1, Rho: rho}.EnvelopeCapped(1),
			traffic.TokenBucket{Sigma: 1, Rho: rho}.EnvelopeCapped(1),
		)
		est.X = append(est.X, u)
		est.Y = append(est.Y, analysis.GreedyPairEstimate(f12, f1, f2, 1, 1))

		ri, err := (analysis.Integrated{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		sound.X = append(sound.X, u)
		sound.Y = append(sound.Y, ri.Bound(0))

		res, err := sim.Run(net, sim.Config{PacketSize: 0.01, Horizon: sim.WorstCaseHorizon(net)})
		if err != nil {
			return nil, err
		}
		simulated.X = append(simulated.X, u)
		simulated.Y = append(simulated.Y, res.Stats[0].MaxDelay)
	}
	return []textplot.Series{simulated, est, sound}, nil
}

// GuaranteedRateComparison reproduces the paper's Section 1.2 observation:
// for guaranteed-rate servers the network-service-curve method is the
// right tool and clearly beats per-hop decomposition. It returns conn-0
// bounds for a WFQ tandem under both methods.
func GuaranteedRateComparison(n int, loads []float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	netCurve := textplot.Series{Name: fmt.Sprintf("NetworkCurve(%d)", n)}
	decomposed := textplot.Series{Name: fmt.Sprintf("Decomposed(%d)", n)}
	for _, u := range loads {
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
		rn, err := (analysis.GuaranteedRateNetworkCurve{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		rd, err := (analysis.Decomposed{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		netCurve.X = append(netCurve.X, u)
		netCurve.Y = append(netCurve.Y, rn.Bound(0))
		decomposed.X = append(decomposed.X, u)
		decomposed.Y = append(decomposed.Y, rd.Bound(0))
	}
	return []textplot.Series{netCurve, decomposed}, nil
}

// StaticPriorityExperiment runs the paper's announced extension on a
// static-priority tandem where connection 0 is the LOW-priority bulk
// class (the interesting case: the urgent class gets near-zero bounds
// regardless of method). Returns conn-0 bounds under SP decomposition,
// the integrated SP analysis, and plain FIFO for contrast.
func StaticPriorityExperiment(n int, loads []float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	spDec := textplot.Series{Name: fmt.Sprintf("SP decomposed(%d)", n)}
	spInt := textplot.Series{Name: fmt.Sprintf("SP integrated(%d)", n)}
	fifo := textplot.Series{Name: fmt.Sprintf("FIFO conn0(%d)", n)}
	for _, u := range loads {
		spec := topo.TandemSpec{
			Switches: n, Sigma: 1, Rho: u / 4, Capacity: 1,
			Discipline: server.StaticPriority, Priority0: 1, PriorityCross: 0,
		}
		net, err := topo.Tandem(spec)
		if err != nil {
			return nil, err
		}
		rs, err := (analysis.Decomposed{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		rsi, err := (analysis.Integrated{}).Analyze(net)
		if err != nil {
			return nil, err
		}
		spec.Discipline = server.FIFO
		fnet, err := topo.Tandem(spec)
		if err != nil {
			return nil, err
		}
		rf, err := (analysis.Decomposed{}).Analyze(fnet)
		if err != nil {
			return nil, err
		}
		spDec.X = append(spDec.X, u)
		spDec.Y = append(spDec.Y, rs.Bound(0))
		spInt.X = append(spInt.X, u)
		spInt.Y = append(spInt.Y, rsi.Bound(0))
		fifo.X = append(fifo.X, u)
		fifo.Y = append(fifo.Y, rf.Bound(0))
	}
	return []textplot.Series{spDec, spInt, fifo}, nil
}

// EDFExperiment compares, on the tandem workload, the bound of an urgent
// multi-hop connection under EDF scheduling against FIFO: EDF lets the
// urgent connection buy a tight bound at the cross traffic's expense,
// provided the deadline assignment stays schedulable. Series: the urgent
// conn-0 EDF bound, a cross connection's EDF bound, and the FIFO conn-0
// bound.
func EDFExperiment(n int, loads []float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	urgent := textplot.Series{Name: fmt.Sprintf("EDF conn0(%d)", n)}
	cross := textplot.Series{Name: fmt.Sprintf("EDF cross(%d)", n)}
	fifo := textplot.Series{Name: fmt.Sprintf("FIFO conn0(%d)", n)}
	for _, u := range loads {
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
		spec.Discipline = server.FIFO
		fnet, err := topo.Tandem(spec)
		if err != nil {
			return nil, err
		}
		rf, err := (analysis.Decomposed{}).Analyze(fnet)
		if err != nil {
			return nil, err
		}
		urgent.X = append(urgent.X, u)
		urgent.Y = append(urgent.Y, re.Bound(0))
		cross.X = append(cross.X, u)
		cross.Y = append(cross.Y, re.Bound(2))
		fifo.X = append(fifo.X, u)
		fifo.Y = append(fifo.Y, rf.Bound(0))
	}
	return []textplot.Series{urgent, cross, fifo}, nil
}

// ChainLengthSweep quantifies the value of longer integrated chains on a
// deep tandem: conn-0 bounds for chain lengths 1 (decomposed), 2 (the
// paper), and the full path.
func ChainLengthSweep(n int, loads []float64) ([]textplot.Series, error) {
	if loads == nil {
		loads = DefaultLoads
	}
	lengths := []int{1, 2, n}
	series := make([]textplot.Series, len(lengths))
	for i, L := range lengths {
		series[i] = textplot.Series{Name: fmt.Sprintf("ChainLength=%d(%d)", L, n)}
	}
	for _, u := range loads {
		net, err := topo.PaperTandem(n, u)
		if err != nil {
			return nil, err
		}
		for i, L := range lengths {
			res, err := (analysis.Integrated{ChainLength: L}).Analyze(net)
			if err != nil {
				return nil, err
			}
			series[i].X = append(series[i].X, u)
			series[i].Y = append(series[i].Y, res.Bound(0))
		}
	}
	return series, nil
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
	series := make([]textplot.Series, len(analyzers))
	for i, a := range analyzers {
		series[i] = textplot.Series{Name: fmt.Sprintf("%s(%d)", a.Name(), n)}
	}
	for _, deadline := range deadlines {
		template := topo.Connection{
			Name:       "flow",
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.02},
			AccessRate: 1,
			Path:       path,
			Deadline:   deadline,
		}
		for i, a := range analyzers {
			ctrl, err := admission.New(servers, a)
			if err != nil {
				return nil, err
			}
			count, err := ctrl.FillGreedy(template, limit)
			if err != nil {
				return nil, err
			}
			series[i].X = append(series[i].X, deadline)
			series[i].Y = append(series[i].Y, float64(count))
		}
	}
	return series, nil
}
