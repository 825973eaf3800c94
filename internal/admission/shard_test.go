package admission

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// requireSameOutcome asserts decision equality for the multi-shard
// differential: Admitted/Code/Reason/Violations are compared exactly, and
// the candidate's own bound (the last Bounds entry) bitwise. The full
// Bounds vector is not compared because a shard's trial network is the
// candidate's component subset — component independence makes the shared
// entries bit-identical (requireSameDecision pins that at one shard), but
// the vectors cover different connection sets.
func requireSameOutcome(t *testing.T, label string, want, got Decision) {
	t.Helper()
	if want.Admitted != got.Admitted || want.Code != got.Code || want.Reason != got.Reason {
		t.Fatalf("%s: decision diverged:\n  engine  %+v\n  sharded %+v", label, want, got)
	}
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("%s: violations %d vs %d", label, len(want.Violations), len(got.Violations))
	}
	for i := range want.Violations {
		if want.Violations[i] != got.Violations[i] {
			t.Errorf("%s: violation %d: %+v vs %+v", label, i, want.Violations[i], got.Violations[i])
		}
	}
	if (len(want.Bounds) == 0) != (len(got.Bounds) == 0) {
		t.Fatalf("%s: bounds presence diverged: %d vs %d entries", label, len(want.Bounds), len(got.Bounds))
	}
	if len(want.Bounds) > 0 {
		wb, gb := want.Bounds[len(want.Bounds)-1], got.Bounds[len(got.Bounds)-1]
		if wb != gb {
			t.Errorf("%s: candidate bound %v vs %v", label, wb, gb)
		}
	}
}

// driveShardDifferential replays one admission sequence through a plain
// Engine and a ShardedEngine and asserts identical outcomes at every step.
// At one shard the two must be indistinguishable in every field.
func driveShardDifferential(t *testing.T, label string, analyzer analysis.Analyzer, net *topo.Network, shards int) {
	t.Helper()
	eng, err := NewEngine(net.Servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analyzer, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, cand := range net.Connections {
		step := fmt.Sprintf("%s/conn%d", label, i)
		wantD, wantErr := eng.Test(bg, cand)
		gotD, gotErr := se.Test(bg, cand)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: test error diverged: engine %v, sharded %v", step, wantErr, gotErr)
		}
		if shards == 1 {
			requireSameDecision(t, step+"/test", wantD, gotD)
		} else {
			requireSameOutcome(t, step+"/test", wantD, gotD)
		}

		wantD, wantErr = eng.Admit(bg, cand)
		gotD, gotErr = se.Admit(bg, cand)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: admit error diverged: engine %v, sharded %v", step, wantErr, gotErr)
		}
		if shards == 1 {
			requireSameDecision(t, step+"/admit", wantD, gotD)
		} else {
			requireSameOutcome(t, step+"/admit", wantD, gotD)
		}
		if eng.Count() != se.Count() {
			t.Fatalf("%s: count diverged: engine %d, sharded %d", step, eng.Count(), se.Count())
		}
	}
	if v := se.SnapshotVersion(); shards == 1 && v != eng.Snapshot().Version() {
		t.Fatalf("%s: snapshot version %d, engine %d", label, v, eng.Snapshot().Version())
	}
}

// TestShardedMatchesEngineOnRandomNetworks is the sharded differential
// acceptance test over the same 26-seed corpus as the engine/controller
// suite, at 1, 2, and 4 shards. Candidates routinely merge components, so
// the cross-shard path is exercised throughout.
func TestShardedMatchesEngineOnRandomNetworks(t *testing.T) {
	for _, analyzer := range incrementalAnalyzers {
		for seed := int64(0); seed < 26; seed++ {
			net := corpusNet(t, analyzer, 6, 9, 0.6, seed)
			rng := rand.New(rand.NewSource(seed * 31))
			for i := range net.Connections {
				switch rng.Intn(4) {
				case 0:
					net.Connections[i].Deadline = 1 + 4*rng.Float64()
				case 1:
					net.Connections[i].Deadline = 0 // invalid: exercises the error path
				default:
					net.Connections[i].Deadline = 100
				}
			}
			for _, shards := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/seed%d/shards%d", analyzer.Name(), seed, shards)
				driveShardDifferential(t, label, analyzer, net, shards)
			}
		}
	}
}

// TestShardedMatchesEngineOnFabrics extends the differential to the
// datacenter builders: a small fat-tree and Clos fabric (connected — every
// admission lands in one growing component) and a disjoint-block fabric
// (the sharded fast path).
func TestShardedMatchesEngineOnFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric differential skipped in -short")
	}
	fabrics := []struct {
		name  string
		build func() (*topo.Network, error)
	}{
		{"fattree2", func() (*topo.Network, error) { return topo.FatTree(2, 2, 0.6) }},
		{"clos2", func() (*topo.Network, error) { return topo.Clos(2, 0.6) }},
		{"disjoint4x3", func() (*topo.Network, error) { return topo.DisjointBlocks(4, 3, 0.6) }},
	}
	for _, f := range fabrics {
		net, err := f.build()
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Connections {
			net.Connections[i].Deadline = 100
		}
		for _, shards := range []int{1, 4} {
			driveShardDifferential(t, fmt.Sprintf("%s/shards%d", f.name, shards),
				analysis.Integrated{}, net, shards)
		}
	}
}

// TestShardedDisjointStaysLocal pins the scaling premise: admissions on a
// disjoint-block fabric spread across shards and never take the global
// cross-shard path.
func TestShardedDisjointStaysLocal(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		if d, err := se.Admit(bg, net.Connections[i]); err != nil || !d.Admitted {
			t.Fatalf("admit %s: %+v err=%v", net.Connections[i].Name, d, err)
		}
	}
	st := se.Stats()
	if st.CrossShardCommits != 0 {
		t.Fatalf("disjoint workload took %d cross-shard commits", st.CrossShardCommits)
	}
	nonEmpty := 0
	for _, sh := range st.PerShard {
		if sh.Admitted > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 4 {
		t.Fatalf("expected all 4 shards populated, got %d: %+v", nonEmpty, st.PerShard)
	}
	if se.Count() != len(net.Connections) {
		t.Fatalf("count %d, want %d", se.Count(), len(net.Connections))
	}
}

// TestShardedCrossShardMergeAndRebalance walks the full component life
// cycle: two blocks land in different shards, a bridging connection merges
// them into one shard under a cross-shard commit, and releasing the bridge
// rebalances a component back onto the emptied shard.
func TestShardedCrossShardMergeAndRebalance(t *testing.T) {
	net, err := topo.DisjointBlocks(2, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		if d, err := se.Admit(bg, net.Connections[i]); err != nil || !d.Admitted {
			t.Fatalf("admit %s: %+v err=%v", net.Connections[i].Name, d, err)
		}
	}
	if st := se.Stats(); st.CrossShardCommits != 0 || st.PerShard[0].Admitted == 0 || st.PerShard[1].Admitted == 0 {
		t.Fatalf("setup expected two populated shards, no cross commits: %+v", st)
	}

	bridge := net.Connections[0]
	bridge.Name = "bridge"
	bridge.Path = []int{0, len(net.Servers) - 1} // spans both blocks
	bridge.Deadline = 1000
	if d, err := se.Admit(bg, bridge); err != nil || !d.Admitted {
		t.Fatalf("bridge admit: %+v err=%v", d, err)
	}
	st := se.Stats()
	if st.CrossShardCommits == 0 {
		t.Fatal("bridge admission did not take the cross-shard path")
	}
	if st.PerShard[0].Admitted != 0 && st.PerShard[1].Admitted != 0 {
		t.Fatalf("merged component should live in one shard: %+v", st.PerShard)
	}
	if se.Count() != len(net.Connections)+1 {
		t.Fatalf("count %d, want %d", se.Count(), len(net.Connections)+1)
	}

	if _, ok, _ := se.Release(bg, "bridge"); !ok {
		t.Fatal("bridge release failed")
	}
	st = se.Stats()
	if st.Rebalances == 0 {
		t.Fatal("releasing the bridge did not rebalance the split components")
	}
	if st.PerShard[0].Admitted == 0 || st.PerShard[1].Admitted == 0 {
		t.Fatalf("rebalance should repopulate both shards: %+v", st.PerShard)
	}
	if se.Count() != len(net.Connections) {
		t.Fatalf("count %d after release, want %d", se.Count(), len(net.Connections))
	}

	// The surviving state must still be exactly re-provable.
	final := &topo.Network{Servers: se.Servers(), Connections: se.Admitted()}
	res, err := analysis.Integrated{}.Analyze(final)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range final.Connections {
		if res.Bound(i) > c.Deadline {
			t.Errorf("connection %s violates its deadline after rebalance: %g > %g", c.Name, res.Bound(i), c.Deadline)
		}
	}
}

// TestShardedDuplicateNameRejected pins the multi-shard uniqueness
// contract: routing resolves connections by name, so a second admission
// under an existing name is a stable invalid_spec rejection.
func TestShardedDuplicateNameRejected(t *testing.T) {
	net, err := topo.DisjointBlocks(2, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cand := net.Connections[0]
	cand.Deadline = 1000
	if d, err := se.Admit(bg, cand); err != nil || !d.Admitted {
		t.Fatalf("first admit: %+v err=%v", d, err)
	}
	d, err := se.Admit(bg, cand)
	if err == nil || d.Admitted || d.Code != CodeInvalidSpec {
		t.Fatalf("duplicate admit: %+v err=%v, want invalid_spec rejection", d, err)
	}
	if se.Count() != 1 {
		t.Fatalf("count %d after duplicate rejection", se.Count())
	}
}

// TestShardedConcurrentMixedOps is the -race stress for the sharding
// protocol: concurrent admits and releases across disjoint blocks mixed
// with block-bridging candidates (cross-shard merges and rebalances). The
// final committed set must be name-consistent between router and shards
// and fully re-provable.
func TestShardedConcurrentMixedOps(t *testing.T) {
	const blocks = 4
	net, err := topo.DisjointBlocks(blocks, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	perBlock := len(net.Connections) / blocks
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			conns := net.Connections[b*perBlock : (b+1)*perBlock]
			for round := 0; round < 3; round++ {
				for i, c := range conns {
					c.Deadline = 1000
					if _, err := se.Admit(bg, c); err != nil {
						t.Errorf("block %d admit %s: %v", b, c.Name, err)
						return
					}
					if i%2 == 0 {
						se.Release(bg, c.Name)
					}
				}
				// A bridging candidate between this block and the next
				// forces merges and, after its release, rebalances.
				bridge := conns[0]
				bridge.Name = fmt.Sprintf("bridge-%d-%d", b, round)
				bridge.Path = []int{b * 2, ((b + 1) % blocks) * 2}
				bridge.Deadline = 1000
				if _, err := se.Admit(bg, bridge); err != nil {
					t.Errorf("block %d bridge: %v", b, err)
					return
				}
				se.Release(bg, bridge.Name)
				for i, c := range conns {
					if i%2 == 0 {
						se.Release(bg, c.Name)
					}
				}
				se.Test(bg, conns[0]) // concurrent replica reads
				se.ReadView()
				for i, c := range conns {
					if i%2 != 0 {
						se.Release(bg, c.Name)
					}
				}
			}
		}(b)
	}
	wg.Wait()

	conns, _ := se.ReadView()
	if len(conns) != se.Count() {
		t.Fatalf("read view %d connections, count %d", len(conns), se.Count())
	}
	final := &topo.Network{Servers: se.Servers(), Connections: conns}
	if len(conns) > 0 {
		res, err := analysis.Integrated{}.Analyze(final)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range final.Connections {
			if res.Bound(i) > c.Deadline {
				t.Errorf("connection %s violates its deadline: %g > %g", c.Name, res.Bound(i), c.Deadline)
			}
		}
	}
	// Every name must release cleanly exactly once: router and shards agree.
	for _, c := range conns {
		if _, ok, _ := se.Release(bg, c.Name); !ok {
			t.Errorf("release %s failed: router/shard divergence", c.Name)
		}
	}
	if se.Count() != 0 {
		t.Fatalf("count %d after draining", se.Count())
	}
}

// TestCrossShardCommitsRebuildLazily pins what replaces the background
// warmer: a cross-shard admission and a rebalance install their shards'
// new sets without a baseline and start nothing, so the next shard-local
// test on every touched shard builds it — exactly once, on the request's
// own goroutine — and runs incrementally.
func TestCrossShardCommitsRebuildLazily(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	se, _, cands, bridge := twoShardSetup(t, analysis.Integrated{})
	requireLazyBuild := func(step string, shard int, test func() (Decision, error)) {
		t.Helper()
		before := se.Shard(shard).Stats()
		if d, err := test(); err != nil || !d.Admitted {
			t.Fatalf("%s: test on shard %d: %+v err=%v", step, shard, d, err)
		}
		st := se.Shard(shard).Stats()
		if inc, full, epochs := st.IncrementalTests-before.IncrementalTests, st.FullTests-before.FullTests,
			st.BaselineEpoch-before.BaselineEpoch; inc != 1 || full != 0 || epochs != 1 {
			t.Fatalf("%s: shard %d ran %d incremental and %d full tests over %d baseline builds, want 1, 0 and 1",
				step, shard, inc, full, epochs)
		}
	}

	if d, err := se.Admit(bg, bridge); err != nil || !d.Admitted {
		t.Fatalf("bridge admit: %+v err=%v", d, err)
	}
	if st := se.Stats(); st.CrossShardCommits != 1 {
		t.Fatalf("bridge admission made %d cross-shard commits, want 1", st.CrossShardCommits)
	}
	winner := se.router.owner[bridge.Path[0]]
	requireLazyBuild("merge", winner, func() (Decision, error) { return se.Test(bg, cands[0]) })
	// The merge emptied the other shard and owns every server, so the router
	// sends nothing there; its engine is tested directly.
	requireLazyBuild("merge", 1-winner, func() (Decision, error) { return se.Shard(1-winner).Test(bg, cands[1]) })

	if _, ok, err := se.Release(bg, bridge.Name); err != nil || !ok {
		t.Fatalf("bridge release: ok=%v err=%v", ok, err)
	}
	if st := se.Stats(); st.Rebalances != 1 {
		t.Fatalf("bridge release rebalanced %d times, want 1", st.Rebalances)
	}
	for _, cand := range cands {
		requireLazyBuild("rebalance", se.router.owner[cand.Path[0]], func() (Decision, error) { return se.Test(bg, cand) })
	}
	if se.router.owner[cands[0].Path[0]] == se.router.owner[cands[1].Path[0]] {
		t.Fatal("rebalance left both blocks on one shard")
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("cross-shard commits left goroutines behind: %d at the start, %d now", goroutines, n)
	}
}
