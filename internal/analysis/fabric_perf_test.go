package analysis

import (
	"testing"

	"delaycalc/internal/topo"
)

// fabricNet builds the datacenter-fabric benchmark workload: a k-ary
// fat-tree with hostsPerEdge flows per edge switch, loaded to 55% on its
// hottest link.
func fabricNet(tb testing.TB, k, hostsPerEdge int) *topo.Network {
	tb.Helper()
	net, err := topo.FatTree(k, hostsPerEdge, 0.55)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestFabricAllocs holds the pooled engine to the allocation-free
// overhaul's acceptance facts on the fabric workload without reading a
// clock: against the pre-overhaul engine (frozen verbatim in
// fabricref_test.go) it must produce the same bounds and allocate at least
// 10x less on a fat-tree fabric, and its steady-state allocation count must
// stay under a committed ceiling. The test runs at k=16 (4,096 link
// servers, 12,800 flows) to keep the reference engine's share of the test
// budget tolerable; BenchmarkFabricAnalyze covers the full ~10k-switch
// scale and the benchmark's analysis.ft16_int_ms times this fixture.
func TestFabricAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the frozen pre-overhaul engine on a k=16 fabric")
	}
	net := fabricNet(t, 16, 100)
	a := Integrated{}

	// The frozen engine draws nothing from a pool, so its count needs no
	// warm-up beyond AllocsPerRun's own and no suspended GC.
	var slowRes *Result
	slowAllocs := testing.AllocsPerRun(1, func() {
		var err error
		if slowRes, err = preIntegratedAnalyze(a, net); err != nil {
			t.Fatal(err)
		}
	})
	fastRes, fastAllocs := analyzeAllocs(t, a, net)
	for i := range fastRes.Bounds {
		if !boundsClose(fastRes.Bounds[i], slowRes.Bounds[i]) {
			t.Fatalf("conn %d: pooled engine bound %v, pre-overhaul %v", i, fastRes.Bounds[i], slowRes.Bounds[i])
		}
	}
	allocRatio := slowAllocs / fastAllocs
	t.Logf("pooled %.0f allocs/pass, pre-overhaul %.0f: %.1fx", fastAllocs, slowAllocs, allocRatio)
	if raceBuild() {
		return
	}
	if allocRatio < 10 {
		t.Errorf("fabric alloc reduction %.1fx, want >= 10x", allocRatio)
	}
	// Measured 11747 on go1.24 (12,800 flows: under one per flow); the
	// ceiling leaves 10%.
	if fastAllocs > 12922 {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass, ceiling is 12922", fastAllocs)
	}
}

// BenchmarkFabricAnalyze is the headline datacenter-scale benchmark: a
// k=22 fat-tree — 10,648 link servers — crossed by 99,946 host flows.
func BenchmarkFabricAnalyze(b *testing.B) {
	net := fabricNet(b, 22, 413)
	a := Integrated{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricAnalyzeK8 is the small-fabric smoke variant CI runs: 512
// link servers, 640 flows.
func BenchmarkFabricAnalyzeK8(b *testing.B) {
	net := fabricNet(b, 8, 20)
	a := Integrated{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(net); err != nil {
			b.Fatal(err)
		}
	}
}
