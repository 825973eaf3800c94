package admission

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// randomOps builds a deterministic mixed admit/release schedule over the
// network's connection templates: the same generator the churn suite uses,
// but emitting the ops instead of applying them.
func randomOps(net *topo.Network, seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []Op
	var live []string
	next := 0
	for len(ops) < n {
		if rng.Intn(3) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			ops = append(ops, Op{Kind: OpRelease, Name: live[i]})
			live = append(live[:i], live[i+1:]...)
			continue
		}
		cand := net.Connections[next%len(net.Connections)]
		cand.Name = fmt.Sprintf("b%d", next)
		if rng.Intn(6) == 0 {
			cand.Deadline = 0.2 + 0.4*rng.Float64() // mostly-rejected tight deadline
		}
		ops = append(ops, Op{Kind: OpAdmit, Candidate: cand})
		live = append(live, cand.Name)
		next++
	}
	return ops
}

// driveBatchDifferential replays one op schedule through a sequential
// engine (N envelopes of one), a batch engine (random-size ApplyBatch
// envelopes), both of the given shard count, and a Controller, and asserts
// per-op decisions equal to the controller's (see requireSameAt) and the
// same final set. At one shard it also pins the single-commit-per-envelope
// invariant and the release modes, which follow the run rule over the
// shard's sub-batch: a release inside a run must drop, one that ends its run
// right after an accepted admit must shrink, and every shrink must report
// the closure the sequential engine scoped. The sub-batch is the envelope
// less the releases of names neither held before it nor admitted earlier in
// it, which reach no shard. At more shards an envelope's runs split over
// the shards, so those rules hold per shard, not per envelope.
func driveBatchDifferential(t *testing.T, label string, analyzer analysis.Analyzer, net *topo.Network, seed int64, shards int) {
	t.Helper()
	seqEng := newEngine(t, net.Servers, analyzer, shards)
	batchEng := newEngine(t, net.Servers, analyzer, shards)
	ctrl, err := New(net.Servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(net, seed, 3*len(net.Connections))
	rng := rand.New(rand.NewSource(seed * 31))
	ctx := context.Background()
	mutating := 0
	for start := 0; start < len(ops); {
		end := start + 1 + rng.Intn(6)
		if end > len(ops) {
			end = len(ops)
		}
		env := ops[start:end]
		// planned[k] reports whether op k reaches the shard's sub-batch.
		known := make(map[string]bool)
		for _, c := range batchEng.Admitted() {
			known[c.Name] = true
		}
		planned := make([]bool, len(env))
		for k, op := range env {
			planned[k] = op.Kind == OpAdmit || known[op.Name]
			if op.Kind == OpAdmit {
				known[op.Candidate.Name] = true
			}
		}
		vBefore := batchEng.SnapshotVersion()
		br, err := batchEng.ApplyBatch(ctx, env)
		if err != nil {
			t.Fatalf("%s: ApplyBatch: %v", label, err)
		}
		for k, op := range env {
			step := fmt.Sprintf("%s/op%d", label, start+k)
			switch op.Kind {
			case OpAdmit:
				wantD, wantErr := ctrl.Admit(op.Candidate)
				seqD, seqErr := seqEng.Admit(bg, op.Candidate)
				gotR := br.Results[k]
				if (wantErr == nil) != (seqErr == nil) || (wantErr == nil) != (gotR.Err == nil) {
					t.Fatalf("%s: admit error diverged: controller %v, sequential %v, batch %v", step, wantErr, seqErr, gotR.Err)
				}
				requireSameAt(t, shards, step+"/sequential", wantD, seqD)
				requireSameAt(t, shards, step+"/batch", wantD, gotR.Decision)
			case OpRelease:
				wantInfo, wantOK, _ := seqEng.Release(bg, op.Name)
				gotR := br.Results[k]
				if ctrlOK := ctrl.Remove(op.Name); wantOK != gotR.Released || ctrlOK != wantOK {
					t.Fatalf("%s: release found diverged: controller %v, sequential %v, batch %v", step, ctrlOK, wantOK, gotR.Released)
				}
				if !wantOK || shards > 1 {
					continue
				}
				next := k + 1
				for next < len(env) && !planned[next] {
					next++
				}
				endsRun := next == len(env) || env[next].Kind != OpRelease
				afterAdmit := k > 0 && env[k-1].Kind == OpAdmit && br.Results[k-1].Decision.Admitted
				switch got := gotR.Release; {
				case !endsRun && got != (ReleaseInfo{Affected: -1}):
					t.Fatalf("%s: release inside a run reported %+v, want the baseline dropped", step, got)
				case endsRun && afterAdmit && !got.Incremental:
					t.Fatalf("%s: release after an accepted admit did not shrink: %+v", step, got)
				case got.Incremental && got != wantInfo:
					t.Fatalf("%s: release info diverged: sequential %+v, batch %+v", step, wantInfo, got)
				}
			}
		}
		if shards == 1 {
			if vAfter := batchEng.SnapshotVersion(); int(vAfter-vBefore) != br.Commits {
				t.Fatalf("%s: envelope advanced version by %d but reported %d commits", label, vAfter-vBefore, br.Commits)
			}
			if br.Commits > 1 {
				t.Fatalf("%s: envelope committed %d times", label, br.Commits)
			}
		}
		if br.Commits > 0 {
			mutating++
		}
		start = end
	}
	if shards == 1 {
		if got := batchEng.Stats().BatchCommits; got != uint64(mutating) {
			t.Fatalf("%s: stats report %d batch commits, want %d", label, got, mutating)
		}
		if seq, batch := seqEng.Stats().FullTests, batchEng.Stats().FullTests; seq != 0 || batch != 0 {
			t.Fatalf("%s: full analyses on the incremental path: sequential %d, batch %d", label, seq, batch)
		}
	}
	want := ctrl.Admitted()
	for _, eng := range []*ShardedEngine{seqEng, batchEng} {
		got := eng.Admitted()
		if shards > 1 {
			// Shard order, not commit order: compare as sets.
			sortByName(want)
			sortByName(got)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: final sets differ: controller %d, engine %d", label, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].Name {
				t.Fatalf("%s: final set order diverged at %d: %q vs %q", label, i, want[i].Name, got[i].Name)
			}
		}
	}
	probe := net.Connections[0]
	probe.Name = "probe"
	probe.Deadline = 100
	wantD, _ := ctrl.Test(probe)
	for _, eng := range []*ShardedEngine{seqEng, batchEng} {
		gotD, _ := eng.Test(bg, probe)
		requireSameAt(t, shards, label+"/probe", wantD, gotD)
	}
}

// sortByName orders connections by name.
func sortByName(conns []topo.Connection) {
	slices.SortFunc(conns, func(a, b topo.Connection) int { return strings.Compare(a.Name, b.Name) })
}

// TestApplyBatchMatchesSequential is the differential acceptance suite for
// batch pipelining: over the same 26-seed feedforward corpus as the churn
// suite, random envelopes must decide like per-op calls and the Controller
// at one and two shards, bit-identically and committing at most once each
// at one.
func TestApplyBatchMatchesSequential(t *testing.T) {
	seeds := int64(26)
	if testing.Short() {
		seeds = 6
	}
	for _, tc := range []struct {
		name string
		corpusCase
	}{
		{"integrated", corpusCase{analysis.Integrated{}, server.FIFO}},
		{"decomposed", corpusCase{analysis.Decomposed{}, server.FIFO}},
		{"integratedsp", corpusCase{analysis.Integrated{}, server.StaticPriority}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				net := corpusNet(t, tc.disc, 6, 6, 0.5, seed)
				rng := rand.New(rand.NewSource(seed * 17))
				for i := range net.Connections {
					if rng.Intn(4) == 0 {
						net.Connections[i].Deadline = 1 + 4*rng.Float64()
					} else {
						net.Connections[i].Deadline = 100
					}
				}
				for _, shards := range []int{1, 2} {
					driveBatchDifferential(t, fmt.Sprintf("seed%d/shards%d", seed, shards), tc.analyzer, net, seed, shards)
				}
			}
		})
	}
}

// TestApplyBatchSingleCommit pins the pipelining invariant directly: a
// mutating envelope of N ops advances the version exactly once, and the
// engine stats expose the envelope/op/commit accounting CI gates on.
func TestApplyBatchSingleCommit(t *testing.T) {
	net := disjointTandem(t, 16)
	eng := newEngine(t, net.Servers, analysis.Integrated{}, 1)
	ops := make([]Op, 0, len(net.Connections)+1)
	for _, c := range net.Connections {
		ops = append(ops, Op{Kind: OpAdmit, Candidate: c})
	}
	ops = append(ops, Op{Kind: OpRelease, Name: net.Connections[0].Name})
	br, err := eng.ApplyBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if br.Commits != 1 || br.ShardsTouched != 1 {
		t.Fatalf("envelope reported %d commits over %d shards, want 1/1", br.Commits, br.ShardsTouched)
	}
	if v := eng.SnapshotVersion(); v != 1 {
		t.Fatalf("version %d after one envelope, want 1", v)
	}
	if n := eng.Count(); n != len(net.Connections)-1 {
		t.Fatalf("admitted %d, want %d", n, len(net.Connections)-1)
	}
	st := eng.Stats()
	if st.BatchEnvelopes != 1 || st.BatchOps != uint64(len(ops)) || st.BatchCommits != 1 {
		t.Fatalf("stats envelopes/ops/commits = %d/%d/%d, want 1/%d/1",
			st.BatchEnvelopes, st.BatchOps, st.BatchCommits, len(ops))
	}

	// A read-only envelope (release of nothing) must not commit at all.
	br, err = eng.ApplyBatch(context.Background(), []Op{{Kind: OpRelease, Name: "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	if br.Commits != 0 || eng.SnapshotVersion() != 1 {
		t.Fatalf("non-mutating envelope committed (commits=%d, version=%d)", br.Commits, eng.SnapshotVersion())
	}
}

// TestTestBatchPinnedSnapshot pins the dry-run isolation semantics: every
// candidate of a dry envelope is judged against the same snapshot, alone —
// two identical candidates must always agree, even while a concurrent
// writer flips the set's capacity headroom under the evaluation.
func TestTestBatchPinnedSnapshot(t *testing.T) {
	net := disjointTandem(t, 4)
	eng := newEngine(t, net.Servers, analysis.Integrated{}, 1)
	// Two equivalent candidates sharing one route: each alone fits, both
	// together would not. Isolation means a dry envelope reports both
	// admitted (judged against the current set alone, not accumulated).
	mk := func(name string) topo.Connection {
		c := net.Connections[0]
		c.Name = name
		c.Bucket.Rho = 0.45
		c.Deadline = 100
		return c
	}
	res, err := eng.TestBatch(context.Background(), []topo.Connection{mk("x"), mk("y")})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Decision.Admitted || !res[1].Decision.Admitted {
		t.Fatalf("dry envelope accumulated state: %+v / %+v", res[0].Decision, res[1].Decision)
	}

	// Concurrency: a writer flips a blocker on the same route in and out;
	// every dry envelope must stay internally consistent (x and y always
	// agree — a torn read of the live head would let them diverge).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		blocker := mk("blocker")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d, err := eng.Admit(bg, blocker); err != nil || !d.Admitted {
				return
			}
			eng.Release(bg, "blocker")
		}
	}()
	for i := 0; i < 200; i++ {
		res, err := eng.TestBatch(context.Background(), []topo.Connection{mk("x"), mk("y")})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Decision.Admitted != res[1].Decision.Admitted {
			t.Fatalf("iteration %d: dry envelope internally inconsistent: x=%+v y=%+v",
				i, res[0].Decision, res[1].Decision)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReleaseRunDropsOnce pins the run rule: an envelope of k releases
// followed by k admits drops the baseline at the first release, rebuilds it
// once for the first admit and promotes it once at the commit, where k
// single releases and k single admits materialise 2k baselines — and every
// result equals theirs and the Controller's.
func TestReleaseRunDropsOnce(t *testing.T) {
	const k = 4
	net, cand := benchNetwork(t)
	batchEng := warmEngine(t, net, cand)
	seqEng := warmEngine(t, net, cand)
	ctrl := fullController(t, net)
	// Controller.Remove edits its slice in place; net's list is shared.
	ctrl.admitted = append([]topo.Connection(nil), net.Connections...)
	var ops []Op
	for _, c := range net.Connections[:k] {
		ops = append(ops, Op{Kind: OpRelease, Name: c.Name})
	}
	for i, c := range net.Connections[:k] {
		c.Name = fmt.Sprintf("back%d", i)
		if i == k-1 {
			c.Deadline = 1e-3 // rejected
		}
		ops = append(ops, Op{Kind: OpAdmit, Candidate: c})
	}

	before := batchEng.Stats()
	br, err := batchEng.ApplyBatch(bg, ops)
	if err != nil {
		t.Fatal(err)
	}
	st := batchEng.Stats()
	if dropped, shrunk := st.CompactedReleases-before.CompactedReleases, st.IncrementalReleases-before.IncrementalReleases; dropped != k || shrunk != 0 {
		t.Fatalf("release run dropped %d and shrank %d baselines, want %d and 0", dropped, shrunk, k)
	}
	if inc, full := st.IncrementalTests-before.IncrementalTests, st.FullTests-before.FullTests; inc != k || full != 0 {
		t.Fatalf("envelope ran %d incremental and %d full tests, want %d and 0", inc, full, k)
	}
	if epochs := st.BaselineEpoch - before.BaselineEpoch; epochs != 2 {
		t.Fatalf("envelope materialised %d baselines, want 2 (one rebuild, one promotion)", epochs)
	}

	before = seqEng.Stats()
	for i, op := range ops {
		step := fmt.Sprintf("op%d", i)
		got := br.Results[i]
		if op.Kind == OpRelease {
			info, ok, err := seqEng.Release(bg, op.Name)
			if err != nil || !ok || !info.Incremental || !ctrl.Remove(op.Name) {
				t.Fatalf("%s: single release: info=%+v ok=%v err=%v", step, info, ok, err)
			}
			if !got.Released || got.Release != (ReleaseInfo{Affected: -1}) {
				t.Fatalf("%s: envelope release reported %+v, want the baseline dropped", step, got)
			}
			continue
		}
		seqD, seqErr := seqEng.Admit(bg, op.Candidate)
		ctrlD, ctrlErr := ctrl.Admit(op.Candidate)
		if seqErr != nil || ctrlErr != nil || got.Err != nil {
			t.Fatalf("%s: admit errors: single %v, controller %v, envelope %v", step, seqErr, ctrlErr, got.Err)
		}
		requireSameDecision(t, step+"/single", ctrlD, seqD)
		requireSameDecision(t, step+"/envelope", ctrlD, got.Decision)
	}
	if epochs := seqEng.Stats().BaselineEpoch - before.BaselineEpoch; epochs != 2*k-1 {
		t.Fatalf("singles materialised %d baselines, want %d", epochs, 2*k-1)
	}
	want, got := ctrl.Admitted(), batchEng.Admitted()
	if len(want) != len(got) || len(got) != len(net.Connections)-1 {
		t.Fatalf("final sets: controller %d, envelope %d, want %d", len(want), len(got), len(net.Connections)-1)
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("final set order diverged at %d: %q vs %q", i, want[i].Name, got[i].Name)
		}
	}
}
