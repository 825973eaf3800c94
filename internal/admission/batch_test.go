package admission

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
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
// engine (N envelopes of one — itself pinned to the Controller oracle by
// the Engine-vs-Controller corpus) and a batch engine (random-size
// ApplyBatch envelopes) and asserts per-op bit-identical decisions,
// identical final state, and the single-commit-per-envelope invariant.
func driveBatchDifferential(t *testing.T, label string, analyzer analysis.Analyzer, net *topo.Network, seed int64) {
	t.Helper()
	seqEng, err := NewEngine(net.Servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	batchEng, err := NewEngine(net.Servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	// ReleaseInfo (not the decisions) depends on whether a compacted
	// baseline has been re-promoted yet, and the background warmer makes
	// that a race against this test's own schedule. Pin both engines to
	// the deterministic no-warm configuration so the info comparison below
	// is exact; decisions are baseline-independent either way.
	seqEng.SetBackgroundPromotion(false)
	batchEng.SetBackgroundPromotion(false)
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
		vBefore := batchEng.Snapshot().Version()
		br, err := batchEng.ApplyBatch(ctx, env, nil)
		if err != nil {
			t.Fatalf("%s: ApplyBatch: %v", label, err)
		}
		for k, op := range env {
			step := fmt.Sprintf("%s/op%d", label, start+k)
			switch op.Kind {
			case OpAdmit:
				wantD, wantErr := seqEng.Admit(bg, op.Candidate)
				gotR := br.Results[k]
				if (wantErr == nil) != (gotR.Err == nil) {
					t.Fatalf("%s: admit error diverged: sequential %v, batch %v", step, wantErr, gotR.Err)
				}
				requireSameDecision(t, step, wantD, gotR.Decision)
			case OpRelease:
				wantInfo, wantOK, _ := seqEng.Release(bg, op.Name)
				gotR := br.Results[k]
				if wantOK != gotR.Released {
					t.Fatalf("%s: release found diverged: sequential %v, batch %v", step, wantOK, gotR.Released)
				}
				if wantOK && wantInfo != gotR.Release {
					t.Fatalf("%s: release info diverged: sequential %+v, batch %+v", step, wantInfo, gotR.Release)
				}
			}
		}
		vAfter := batchEng.Snapshot().Version()
		if int(vAfter-vBefore) != br.Commits {
			t.Fatalf("%s: envelope advanced version by %d but reported %d commits", label, vAfter-vBefore, br.Commits)
		}
		if br.Commits > 1 {
			t.Fatalf("%s: envelope committed %d times", label, br.Commits)
		}
		if br.Commits == 1 {
			mutating++
		}
		start = end
	}
	if got := batchEng.Stats().BatchCommits; got != uint64(mutating) {
		t.Fatalf("%s: stats report %d batch commits, want %d", label, got, mutating)
	}
	seqAdmitted, batchAdmitted := seqEng.Admitted(), batchEng.Admitted()
	if len(seqAdmitted) != len(batchAdmitted) {
		t.Fatalf("%s: final sets differ: sequential %d, batch %d", label, len(seqAdmitted), len(batchAdmitted))
	}
	for i := range seqAdmitted {
		if seqAdmitted[i].Name != batchAdmitted[i].Name {
			t.Fatalf("%s: final set order diverged at %d: %q vs %q", label, i, seqAdmitted[i].Name, batchAdmitted[i].Name)
		}
	}
	probe := net.Connections[0]
	probe.Name = "probe"
	probe.Deadline = 100
	wantD, _ := seqEng.Test(bg, probe)
	gotD, _ := batchEng.Test(bg, probe)
	requireSameDecision(t, label+"/probe", wantD, gotD)
}

// TestApplyBatchMatchesSequential is the differential acceptance suite for
// batch pipelining: over the same 26-seed feedforward corpus as the churn
// suite, random envelopes must decide bit-identically to per-op calls and
// commit at most once each.
func TestApplyBatchMatchesSequential(t *testing.T) {
	seeds := int64(26)
	if testing.Short() {
		seeds = 6
	}
	for _, tc := range []struct {
		name     string
		analyzer analysis.Analyzer
	}{
		{"integrated", analysis.Integrated{}},
		{"decomposed", analysis.Decomposed{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				net, err := topo.RandomFeedforward(6, 6, 0.5, seed)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed * 17))
				for i := range net.Connections {
					if rng.Intn(4) == 0 {
						net.Connections[i].Deadline = 1 + 4*rng.Float64()
					} else {
						net.Connections[i].Deadline = 100
					}
				}
				driveBatchDifferential(t, fmt.Sprintf("seed%d", seed), tc.analyzer, net, seed)
			}
		})
	}
}

// TestApplyBatchSingleCommit pins the pipelining invariant directly: a
// mutating envelope of N ops advances the version exactly once, and the
// engine stats expose the envelope/op/commit accounting CI gates on.
func TestApplyBatchSingleCommit(t *testing.T) {
	net := disjointTandem(t, 16)
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 0, len(net.Connections)+1)
	for _, c := range net.Connections {
		ops = append(ops, Op{Kind: OpAdmit, Candidate: c})
	}
	ops = append(ops, Op{Kind: OpRelease, Name: net.Connections[0].Name})
	br, err := eng.ApplyBatch(context.Background(), ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Commits != 1 || br.ShardsTouched != 1 {
		t.Fatalf("envelope reported %d commits over %d shards, want 1/1", br.Commits, br.ShardsTouched)
	}
	if v := eng.Snapshot().Version(); v != 1 {
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
	br, err = eng.ApplyBatch(context.Background(), []Op{{Kind: OpRelease, Name: "ghost"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Commits != 0 || eng.Snapshot().Version() != 1 {
		t.Fatalf("non-mutating envelope committed (commits=%d, version=%d)", br.Commits, eng.Snapshot().Version())
	}
}

// TestTestBatchPinnedSnapshot pins the dry-run isolation semantics: every
// candidate of a dry envelope is judged against the same snapshot, alone —
// two identical candidates must always agree, even while a concurrent
// writer flips the set's capacity headroom under the evaluation.
func TestTestBatchPinnedSnapshot(t *testing.T) {
	net := disjointTandem(t, 4)
	eng, err := NewEngine(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := eng.TestBatch(context.Background(), []topo.Connection{mk("x"), mk("y")}, nil)
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
		res, err := eng.TestBatch(context.Background(), []topo.Connection{mk("x"), mk("y")}, nil)
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

// TestSetCompactionThresholdRace is the -race regression for the
// previously unsynchronized compactFrac write: flipping the threshold
// while releases read it concurrently must be clean on both engine
// flavors.
func TestSetCompactionThresholdRace(t *testing.T) {
	net := disjointTandem(t, 8)
	run := func(t *testing.T, admit func(topo.Connection) error, release func(string), setThreshold func(float64)) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				setThreshold(float64(i%2) * DefaultCompactionThreshold * 2)
			}
		}()
		for i := 0; i < 50; i++ {
			c := net.Connections[i%len(net.Connections)]
			c.Name = fmt.Sprintf("r%d", i)
			if err := admit(c); err != nil {
				t.Fatal(err)
			}
			release(c.Name)
		}
		close(stop)
		wg.Wait()
	}
	t.Run("engine", func(t *testing.T) {
		eng, err := NewEngine(net.Servers, analysis.Integrated{})
		if err != nil {
			t.Fatal(err)
		}
		run(t,
			func(c topo.Connection) error { _, err := eng.Admit(bg, c); return err },
			func(name string) { eng.Release(bg, name) },
			eng.SetCompactionThreshold)
	})
	t.Run("sharded", func(t *testing.T) {
		se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		run(t,
			func(c topo.Connection) error { _, err := se.Admit(bg, c); return err },
			func(name string) { se.Release(bg, name) },
			se.SetCompactionThreshold)
	})
}
