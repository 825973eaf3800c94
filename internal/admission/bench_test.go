package admission

import (
	"fmt"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// benchNetwork builds the benchmark fabric from the issue's acceptance
// scenario: a 32-switch tandem carrying 200 admitted connections with
// short contiguous routes, plus a 2-hop candidate at the tail whose
// interference closure touches only a handful of them. Rates are scaled so
// the busiest server runs at 55% utilization.
func benchNetwork(tb testing.TB) (*topo.Network, topo.Connection) {
	tb.Helper()
	const nServers = 32
	const nConns = 200
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
	rho := 0.55 / float64(maxLoad+1) // +1 leaves room for the candidate
	conns := make([]topo.Connection, nConns)
	for i := range conns {
		conns[i] = topo.Connection{
			Name:       fmt.Sprintf("bench%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: rho},
			AccessRate: 1,
			Path:       paths[i],
			Deadline:   10000,
		}
	}
	cand := topo.Connection{
		Name:       "cand",
		Bucket:     traffic.TokenBucket{Sigma: 1, Rho: rho},
		AccessRate: 1,
		Path:       []int{nServers - 2, nServers - 1},
		Deadline:   10000,
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	if err := net.Validate(); err != nil {
		tb.Fatal(err)
	}
	return net, cand
}

// shardNetwork builds what one shard of a sharded Integrated daemon
// holds at capacity: the servers of an eight-block fabric with 500
// connections on contiguous 2- and 3-hop routes of its own two blocks, and
// a candidate crossing one of them. Its trial dirties one block's chains
// and replays every other unit, so the row shows what a trial costs beside
// what it recomputes.
func shardNetwork(tb testing.TB) (*topo.Network, topo.Connection) {
	tb.Helper()
	fabric, err := topo.DisjointBlocks(8, 3, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	conn := func(name string, path ...int) topo.Connection {
		return topo.Connection{Name: name, Bucket: traffic.TokenBucket{Sigma: 1, Rho: 1e-4},
			AccessRate: 1, Path: path, Deadline: 10000}
	}
	net := &topo.Network{Servers: fabric.Servers}
	for i := 0; i < 500; i++ {
		block, hops := i%2, 2+(i/2)%2
		path := make([]int, hops)
		for h := range path {
			path[h] = 3*block + (i/4)%(4-hops) + h // every start that fits the block
		}
		net.Connections = append(net.Connections, conn(fmt.Sprintf("shard%d", i), path...))
	}
	if err := net.Validate(); err != nil {
		tb.Fatal(err)
	}
	return net, conn("cand", 0, 1)
}

// fullController returns a Controller preloaded with the benchmark's
// admitted set (seeded directly; admitting through the API would run 200
// full analyses of setup).
func fullController(tb testing.TB, net *topo.Network) *Controller {
	tb.Helper()
	ctrl, err := New(net.Servers, analysis.Integrated{})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl.admitted = net.Connections
	return ctrl
}

// warmEngine returns a one-shard engine preloaded with the benchmark's
// admitted set and a built baseline, the steady state a long-running daemon
// sits in.
func warmEngine(tb testing.TB, net *topo.Network, cand topo.Connection) *ShardedEngine {
	tb.Helper()
	eng := newEngine(tb, net.Servers, analysis.Integrated{}, 1)
	preload(eng, net.Connections)
	d, err := eng.Test(bg, cand) // builds the baseline
	if err != nil {
		tb.Fatal(err)
	}
	if !d.Admitted {
		tb.Fatalf("benchmark candidate rejected: %+v", d)
	}
	if st := eng.Stats(); st.IncrementalTests == 0 {
		tb.Fatalf("benchmark engine is not on the incremental path: %+v", st)
	}
	return eng
}

func runFullTest(b *testing.B, net *topo.Network, cand topo.Connection) {
	ctrl := fullController(b, net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ctrl.Test(cand)
		if err != nil || !d.Admitted {
			b.Fatalf("full test failed: %+v %v", d, err)
		}
	}
}

func runIncrementalTest(b *testing.B, net *topo.Network, cand topo.Connection) {
	eng := warmEngine(b, net, cand)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := eng.Test(bg, cand)
		if err != nil || !d.Admitted {
			b.Fatalf("incremental test failed: %+v %v", d, err)
		}
	}
}

// BenchmarkFullTest is one admission test via full re-analysis of the
// 201-connection trial network.
func BenchmarkFullTest(b *testing.B) {
	net, cand := benchNetwork(b)
	runFullTest(b, net, cand)
}

// BenchmarkIncrementalTest is the same admission test via baseline replay;
// the deterministic counterpart in tier-1 is TestIncrementalWork.
func BenchmarkIncrementalTest(b *testing.B) {
	net, cand := benchNetwork(b)
	runIncrementalTest(b, net, cand)
}

// BenchmarkIncrementalTestShard is the incremental admission test on one
// Integrated shard at 500 connections (see shardNetwork): with
// -benchmem, B/op and allocs/op are the bookkeeping of one trial.
func BenchmarkIncrementalTestShard(b *testing.B) {
	net, cand := shardNetwork(b)
	runIncrementalTest(b, net, cand)
}

// BenchmarkAdmission groups the paths under one name for the CI smoke job
// (go test -bench=Admission -benchmem -benchtime=1x).
func BenchmarkAdmission(b *testing.B) {
	net, cand := benchNetwork(b)
	b.Run("FullTest", func(b *testing.B) { runFullTest(b, net, cand) })
	b.Run("IncrementalTest", func(b *testing.B) { runIncrementalTest(b, net, cand) })
	net, cand = shardNetwork(b)
	b.Run("IncrementalTestShard", func(b *testing.B) { runIncrementalTest(b, net, cand) })
}

// churnVictims names what one measured removal releases. The incremental
// arm releases the candidate alone, which shrinks the baseline. The
// invalidating arm releases it and a twin on the same route in ONE
// envelope: a run of releases drops the baseline once, so the following
// admission pays a full re-analysis to rebuild it.
func churnVictims(cand topo.Connection, invalidating bool) []topo.Connection {
	if !invalidating {
		return []topo.Connection{cand}
	}
	twin := cand
	twin.Name = cand.Name + "-twin"
	return []topo.Connection{cand, twin}
}

// churnEngine returns a warm engine holding the benchmark's admitted set
// plus the victims, ready for release/re-admit cycles.
func churnEngine(tb testing.TB, net *topo.Network, victims []topo.Connection) *ShardedEngine {
	tb.Helper()
	eng := warmEngine(tb, net, victims[0])
	readmit(tb, eng, victims)
	return eng
}

// releaseVictims releases the victims as one envelope.
func releaseVictims(tb testing.TB, eng *ShardedEngine, victims []topo.Connection) []OpResult {
	tb.Helper()
	ops := make([]Op, len(victims))
	for i, v := range victims {
		ops[i] = Op{Kind: OpRelease, Name: v.Name}
	}
	br, err := eng.ApplyBatch(bg, ops)
	if err != nil {
		tb.Fatalf("release envelope: %v", err)
	}
	for i, r := range br.Results {
		if !r.Released {
			tb.Fatalf("release %q failed", victims[i].Name)
		}
	}
	return br.Results
}

// releaseAndWarm is one measured removal: release the victims and pay
// whatever it takes to leave the engine ready for the next incremental
// admission. A shrinking release promotes the shrunken baseline inline, so
// the warm-up is free; one that dropped the baseline forces a full
// re-analysis here. The subsequent re-admission costs one extend per victim
// in both worlds and is restored outside the timer by the callers.
func releaseAndWarm(tb testing.TB, eng *ShardedEngine, victims []topo.Connection) {
	tb.Helper()
	releaseVictims(tb, eng, victims)
	if err := eng.WarmBaseline(); err != nil {
		tb.Fatalf("warm baseline: %v", err)
	}
}

// readmit admits the victims one by one: the benchmark state before a
// measured release.
func readmit(tb testing.TB, eng *ShardedEngine, victims []topo.Connection) {
	tb.Helper()
	for _, v := range victims {
		d, err := eng.Admit(bg, v)
		if err != nil || !d.Admitted {
			tb.Fatalf("admit %q failed: %+v %v", v.Name, d, err)
		}
	}
}

// BenchmarkRelease measures one removal on the 200-connection, 32-switch
// tandem: Incremental shrinks the baseline in place (scoped unit-trace
// replay), Invalidating (a two-release envelope) drops it and pays the full
// re-analysis the next admission would otherwise absorb. The deterministic
// counterpart in tier-1 is TestReleaseWork.
func BenchmarkRelease(b *testing.B) {
	net, cand := benchNetwork(b)
	run := func(b *testing.B, invalidating bool) {
		victims := churnVictims(cand, invalidating)
		eng := churnEngine(b, net, victims)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			releaseAndWarm(b, eng, victims)
			b.StopTimer()
			readmit(b, eng, victims)
			b.StartTimer()
		}
	}
	b.Run("Incremental", func(b *testing.B) { run(b, false) })
	b.Run("Invalidating", func(b *testing.B) { run(b, true) })
}

// TestReleaseWork is the deterministic tier-1 gate behind BenchmarkRelease
// (whose wall-clock rows live in `make bench-release`): on the
// 200-connection benchmark fabric a lone release takes the shrink path
// exactly once and leaves a materialised baseline behind, so the next
// admission only promotes; a two-release envelope drops the baseline once,
// leaves none, and the next admission rebuilds it exactly once.
func TestReleaseWork(t *testing.T) {
	net, cand := benchNetwork(t)
	for _, invalidating := range []bool{false, true} {
		victims := churnVictims(cand, invalidating)
		eng := churnEngine(t, net, victims)
		before := eng.Stats()
		results := releaseVictims(t, eng, victims)
		st := eng.Stats()
		inc := st.IncrementalReleases - before.IncrementalReleases
		dropped := st.CompactedReleases - before.CompactedReleases
		warm := eng.shards[0].snap.Load().cachedBaseline() != nil
		// An admission promotes one baseline; a cold one builds one first.
		wantEpochs := uint64(1)
		if invalidating {
			wantEpochs = 2
			for _, r := range results {
				if r.Release != (ReleaseInfo{Affected: -1}) {
					t.Fatalf("release run: info=%+v, want the baseline dropped", r.Release)
				}
			}
			if inc != 0 || dropped != 2 || warm {
				t.Fatalf("release run: incremental=%d dropped=%d baseline=%v, want two drops and no baseline", inc, dropped, warm)
			}
		} else if info := results[0].Release; !info.Incremental || inc != 1 || dropped != 0 || !warm {
			t.Fatalf("lone release: info=%+v incremental=%d dropped=%d baseline=%v, want one shrink and a warm baseline",
				info, inc, dropped, warm)
		}
		before = st
		readmit(t, eng, victims[:1])
		st = eng.Stats()
		if epochs, full := st.BaselineEpoch-before.BaselineEpoch, st.FullTests-before.FullTests; epochs != wantEpochs || full != 0 {
			t.Fatalf("invalidating=%v: next admission materialised %d baselines and ran %d full tests, want %d and 0",
				invalidating, epochs, full, wantEpochs)
		}
	}
}

// maxRecomputedUnits is the committed ceiling on the units the benchmark
// candidate's incremental test may analyze for real: its 2-hop route at the
// tail of the 32-switch tandem dirties one unit of the trial's 16.
const maxRecomputedUnits = 1

// TestIncrementalWork is the deterministic tier-1 gate behind
// BenchmarkIncrementalTest (whose wall-clock rows live in `make
// bench-admit`): on the 200-connection benchmark fabric the admission test
// runs incrementally exactly once, never touches the full path, and
// replays all but a committed handful of the trial's units from the
// baseline.
func TestIncrementalWork(t *testing.T) {
	net, cand := benchNetwork(t)
	eng := warmEngine(t, net, cand)
	before := eng.Stats()
	sh := eng.Shard(0)
	snap := sh.snap.Load()
	d, ts, err := sh.admitStep(bg, snap, snap.workingState(), cand)
	if err != nil || !d.Admitted {
		t.Fatalf("incremental test failed: %+v %v", d, err)
	}
	st := eng.Stats()
	if inc, full := st.IncrementalTests-before.IncrementalTests, st.FullTests-before.FullTests; inc != 1 || full != 0 {
		t.Fatalf("test took %d incremental and %d full analyses, want 1 and 0", inc, full)
	}
	ext := ts.ext
	if ext == nil {
		t.Fatal("incremental test returned no extension")
	}
	t.Logf("extend stats: %+v", ext.Stats)
	if ext.Stats.ReplayedUnits == 0 || ext.Stats.RecomputedUnits > maxRecomputedUnits {
		t.Fatalf("extend recomputed %d units (ceiling %d) and replayed %d, want a mostly replayed trial",
			ext.Stats.RecomputedUnits, maxRecomputedUnits, ext.Stats.ReplayedUnits)
	}
}
