// Package delaycalc_test holds the top-level benchmark harness: one
// benchmark per paper figure/table (each benchmark run regenerates the
// figure's series and reports headline numbers as custom metrics), plus
// scaling benchmarks for the analyzers and the simulator.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks expose the reproduced values as benchmark
// metrics (e.g. delay bounds at 80% load and the relative improvements),
// so CI logs double as a regression record of the reproduction.
package delaycalc_test

import (
	"fmt"
	"testing"

	"delaycalc"
	"delaycalc/internal/analysis"
	"delaycalc/internal/experiments"
	"delaycalc/internal/sim"
	"delaycalc/internal/topo"
)

// benchLoads keeps figure benchmarks affordable while covering the range.
var benchLoads = []float64{0.2, 0.5, 0.8}

// BenchmarkFigure4 regenerates Figure 4 (Decomposed vs ServiceCurve) and
// reports the 8-switch bounds at 80% load.
func BenchmarkFigure4(b *testing.B) {
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Figure4(benchLoads)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := func(i int) float64 { return fig.Delays[i].Y[len(fig.Delays[i].Y)-1] }
	b.ReportMetric(last(6), "decomposed(8)@0.8")
	b.ReportMetric(last(7), "servicecurve(8)@0.8")
}

// BenchmarkFigure5 regenerates Figure 5 (Integrated vs Decomposed) and
// reports the 8-switch relative improvement at 80% load.
func BenchmarkFigure5(b *testing.B) {
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Figure5(benchLoads)
		if err != nil {
			b.Fatal(err)
		}
	}
	imp := fig.Improvement[len(fig.Improvement)-1]
	b.ReportMetric(imp.Y[len(imp.Y)-1], "R(D,I)(8)@0.8")
}

// BenchmarkFigure6 regenerates Figure 6 (Integrated vs ServiceCurve) and
// reports the 8-switch relative improvement at 80% load.
func BenchmarkFigure6(b *testing.B) {
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Figure6(benchLoads)
		if err != nil {
			b.Fatal(err)
		}
	}
	imp := fig.Improvement[len(fig.Improvement)-1]
	b.ReportMetric(imp.Y[len(imp.Y)-1], "R(SC,I)(8)@0.8")
}

// BenchmarkBurstiness regenerates the Section 4.1 burstiness-invariance
// check and reports the spread of the relative improvement across sigmas.
func BenchmarkBurstiness(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		imp, _, err := experiments.BurstinessSweep(4, 0.6, []float64{0.5, 1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := imp.Y[0], imp.Y[0]
		for _, r := range imp.Y {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "R-spread")
}

// BenchmarkSubsystem measures the two-multiplexor pair analysis (the
// paper's Section 2 core) in isolation.
func BenchmarkSubsystem(b *testing.B) {
	net, err := topo.PaperTandem(2, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	a := analysis.Integrated{}
	b.ResetTimer()
	var bound float64
	for i := 0; i < b.N; i++ {
		res, err := a.Analyze(net)
		if err != nil {
			b.Fatal(err)
		}
		bound = res.Bound(0)
	}
	b.ReportMetric(bound, "bound@0.8")
}

// BenchmarkGuaranteedRate regenerates the guaranteed-rate comparison
// (paper Section 1.2: service curves are the right tool there).
func BenchmarkGuaranteedRate(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.GuaranteedRateComparison(4, benchLoads)
		if err != nil {
			b.Fatal(err)
		}
		last := len(series[0].Y) - 1
		ratio = series[1].Y[last] / series[0].Y[last]
	}
	b.ReportMetric(ratio, "decomposed/netcurve@0.8")
}

// BenchmarkStaticPriority regenerates the static-priority extension sweep
// and reports the integrated-vs-decomposed improvement for the bulk class.
func BenchmarkStaticPriority(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.StaticPriorityExperiment(4, benchLoads)
		if err != nil {
			b.Fatal(err)
		}
		last := len(series[0].Y) - 1
		imp = 1 - series[1].Y[last]/series[0].Y[last]
	}
	b.ReportMetric(imp, "SP-integrated-gain@0.8")
}

// BenchmarkAblationPairing measures the pairing-vs-singletons ablation.
func BenchmarkAblationPairing(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.AblationPairing(4, benchLoads)
		if err != nil {
			b.Fatal(err)
		}
		last := len(series[0].Y) - 1
		gain = 1 - series[0].Y[last]/series[1].Y[last]
	}
	b.ReportMetric(gain, "pairing-gain@0.8")
}

// BenchmarkAnalyzers measures each analyzer's cost as the tandem grows.
func BenchmarkAnalyzers(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		net, err := topo.PaperTandem(n, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range []analysis.Analyzer{analysis.Decomposed{}, analysis.ServiceCurve{}, analysis.Integrated{}} {
			b.Run(fmt.Sprintf("%s/n=%d", a.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.Analyze(net); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimulator measures packet-simulation throughput on the paper
// tandem.
func BenchmarkSimulator(b *testing.B) {
	net, err := topo.PaperTandem(4, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{PacketSize: 0.05, Horizon: 50}
	b.ResetTimer()
	var delivered int
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(net, cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered = res.Delivered
	}
	b.ReportMetric(float64(delivered), "packets")
}

// BenchmarkAdmission measures the admission fill loop under the integrated
// analysis (the online use case the paper targets).
func BenchmarkAdmission(b *testing.B) {
	net, err := topo.PaperTandem(4, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	template := delaycalc.Connection{
		Name:       "flow",
		Bucket:     delaycalc.TokenBucket{Sigma: 1, Rho: 0.02},
		AccessRate: 1,
		Path:       []int{0, 1, 2, 3},
		Deadline:   14,
	}
	b.ResetTimer()
	var admitted int
	for i := 0; i < b.N; i++ {
		ctrl, err := delaycalc.NewAdmissionController(net.Servers, delaycalc.NewIntegrated())
		if err != nil {
			b.Fatal(err)
		}
		admitted, err = ctrl.FillGreedy(template, 50)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(admitted), "admitted")
}

// BenchmarkEDF regenerates the EDF extension sweep.
func BenchmarkEDF(b *testing.B) {
	var urgent float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.EDFExperiment(4, benchLoads)
		if err != nil {
			b.Fatal(err)
		}
		urgent = series[0].Y[len(series[0].Y)-1]
	}
	b.ReportMetric(urgent, "EDF-conn0@0.8")
}

// BenchmarkAblationChainLength measures the chain-length extension: how
// much the full-path integrated analysis improves on the paper's pairs.
func BenchmarkAblationChainLength(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.ChainLengthSweep(6, benchLoads)
		if err != nil {
			b.Fatal(err)
		}
		last := len(series[1].Y) - 1
		gain = 1 - series[2].Y[last]/series[1].Y[last]
	}
	b.ReportMetric(gain, "full-vs-pairs-gain@0.8")
}

// BenchmarkAdmissionCapacity regenerates the admission-capacity sweep
// (the paper's utilization argument made concrete).
func BenchmarkAdmissionCapacity(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.AdmissionCapacity(4, []float64{14}, 100)
		if err != nil {
			b.Fatal(err)
		}
		gain = series[2].Y[0] / series[0].Y[0]
	}
	b.ReportMetric(gain, "integrated/decomposed@deadline14")
}
