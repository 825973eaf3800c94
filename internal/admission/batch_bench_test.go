package admission

import (
	"context"
	"fmt"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// benchOps builds one envelope of n admissions over the tandem.
func benchOps(net *topo.Network, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		c := net.Connections[0]
		c.Name = fmt.Sprintf("bb%d", i)
		ops[i] = Op{Kind: OpAdmit, Candidate: c}
	}
	return ops
}

func BenchmarkSequentialAdmits32(b *testing.B) {
	net := disjointTandem(b, 8)
	ops := benchOps(net, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := newEngine(b, net.Servers, analysis.Integrated{}, 1)
		if err := eng.WarmBaseline(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, op := range ops {
			if _, err := eng.Admit(bg, op.Candidate); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkApplyBatch32(b *testing.B) {
	net := disjointTandem(b, 8)
	ops := benchOps(net, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := newEngine(b, net.Servers, analysis.Integrated{}, 1)
		if err := eng.WarmBaseline(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.ApplyBatch(context.Background(), ops); err != nil {
			b.Fatal(err)
		}
	}
}
