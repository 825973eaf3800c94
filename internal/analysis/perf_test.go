package analysis

import (
	"context"
	"errors"
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

// BenchmarkFabricAnalyzeK8 is the small-fabric variant for quick
// comparisons: 512 link servers, 640 flows.
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

// BenchmarkAnalyzeSetup times what precedes the first unit of a k=16
// fat-tree Integrated pass (4,096 servers, 12,800 connections): the
// validation, the routes (graph, order, connection index, load), the
// partition and its levels, and the propagation set-up. The context is
// cancelled before the pass starts, so the driver stops at its first
// checkpoint, the one before the first level.
func BenchmarkAnalyzeSetup(b *testing.B) {
	net := fabricNet(b, 16, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Integrated{}).AnalyzeContext(ctx, net); !errors.Is(err, context.Canceled) {
			b.Fatalf("a cancelled pass returned %v", err)
		}
	}
}
