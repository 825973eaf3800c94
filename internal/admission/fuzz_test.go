package admission

import (
	"math/rand"
	"slices"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// FuzzIncrementalEquivalence is the differential fuzzer for the tentpole
// invariant: over fuzzer-chosen random feedforward networks and deadline
// mixes, replaying the same admission sequence through the full-analysis
// Controller and the incremental Engine must produce bit-identical
// decisions at every step, under Integrated, Decomposed and ServiceCurve,
// under Integrated on a static-priority copy (server latencies on odd
// seeds), and under the guaranteed-rate network curve on a guaranteed-rate
// copy. Each sequence is replayed through a two-shard ShardedEngine too,
// whose router serves every shard count: its outcomes must equal the
// Engine's.
//
// shape packs the network dimensions so the two int64 inputs stay
// trivially mutable; out-of-range values are folded into the valid domain
// rather than rejected, keeping every input productive.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(387))
	f.Add(int64(42), int64(7777))
	f.Add(int64(-9), int64(123456789))
	f.Add(int64(2026), int64(31337))
	f.Fuzz(func(t *testing.T, seed, shape int64) {
		if shape < 0 {
			shape = -shape
		}
		nServers := int(shape%9) + 2               // 2..10
		nConns := int((shape/9)%10) + 2            // 2..11
		util := 0.1 + float64((shape/90)%80)/100.0 // 0.10..0.89
		net, err := topo.RandomFeedforward(nServers, nConns, util, seed)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed ^ shape))
		for i := range net.Connections {
			switch rng.Intn(4) {
			case 0:
				net.Connections[i].Deadline = 0.5 + 5*rng.Float64()
			case 1:
				net.Connections[i].Deadline = 0
			default:
				net.Connections[i].Deadline = 200
			}
		}
		// The guaranteed-rate network curve runs on a copy whose servers are
		// all guaranteed-rate and whose connections reserve their rates,
		// Integrated's static-priority chains on a copy with classes 0-2.
		gr := &topo.Network{Servers: slices.Clone(net.Servers), Connections: slices.Clone(net.Connections)}
		grify(gr)
		sp := &topo.Network{Servers: slices.Clone(net.Servers), Connections: slices.Clone(net.Connections)}
		spify(sp, seed%2 == 1)
		for _, tc := range []struct {
			label    string
			analyzer analysis.Analyzer
			net      *topo.Network
		}{
			{"Integrated", analysis.Integrated{}, net},
			{"Decomposed", analysis.Decomposed{}, net},
			{"ServiceCurve", analysis.ServiceCurve{}, net},
			{"GuaranteedRate", analysis.GuaranteedRateNetworkCurve{}, gr},
			{"StaticPriority", analysis.Integrated{}, sp},
		} {
			driveDifferential(t, "fuzz/"+tc.label, tc.analyzer, tc.net)
			driveShardDifferential(t, "fuzz/sharded/"+tc.label, tc.analyzer, tc.net, 2)
		}
	})
}
