package analysis

import (
	"fmt"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// benchTandemNet builds the curve-engine benchmark workload: a tandem of
// unit-capacity FIFO switches crossed by short overlapping connections
// (hops cycling 2..4), loaded well inside the stability region.
func benchTandemNet(nServers, nConns int) *topo.Network {
	servers := make([]server.Server, nServers)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("sw%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	load := make([]int, nServers)
	paths := make([][]int, nConns)
	for i := 0; i < nConns; i++ {
		hops := 2 + i%3
		start := (i * 7) % (nServers - hops)
		path := make([]int, hops)
		for h := range path {
			path[h] = start + h
			load[start+h]++
		}
		paths[i] = path
	}
	maxLoad := 1
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	rho := 0.55 / float64(maxLoad+1)
	conns := make([]topo.Connection, nConns)
	for i := range conns {
		conns[i] = topo.Connection{
			Name:       fmt.Sprintf("bench%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1 + 0.01*float64(i%7), Rho: rho * (1 + 0.001*float64(i%11))},
			AccessRate: 1,
			Path:       paths[i],
			Deadline:   10000,
		}
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

// TestCurveEngineAllocs holds the reworked Integrated engine to the
// overhaul's acceptance facts on the 64-switch / 400-connection tandem
// without reading a clock: the same bounds as the pre-overhaul engine
// (frozen verbatim in reference_test.go), and a steady-state allocation
// count under a committed ceiling. BenchmarkIntegratedAnalyze is the
// wall-clock row of the same fixture.
func TestCurveEngineAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the frozen reference engine")
	}
	net := benchTandemNet(64, 400)
	a := Integrated{}

	slowRes, err := refIntegratedAnalyze(a, net)
	if err != nil {
		t.Fatal(err)
	}
	fastRes, allocs := analyzeAllocs(t, a, net)
	for i := range fastRes.Bounds {
		if !boundsClose(fastRes.Bounds[i], slowRes.Bounds[i]) {
			t.Fatalf("conn %d: new engine bound %v, reference %v", i, fastRes.Bounds[i], slowRes.Bounds[i])
		}
	}
	t.Logf("%.0f allocs/pass", allocs)
	// Measured 409 on go1.24; the 10% margin absorbs runtime differences
	// between Go releases, not new per-connection heap traffic (400
	// connections).
	if allocs > 450 && !raceBuild() {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass, ceiling is 450", allocs)
	}
}

func BenchmarkIntegratedAnalyze(b *testing.B) {
	net := benchTandemNet(64, 400)
	a := Integrated{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegratedAnalyzeChain4(b *testing.B) {
	net := benchTandemNet(32, 200)
	a := Integrated{ChainLength: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(net); err != nil {
			b.Fatal(err)
		}
	}
}
