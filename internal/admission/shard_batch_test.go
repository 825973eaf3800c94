package admission

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// TestShardedApplyBatchMatchesSequential replays random envelopes through
// a sharded engine and compares every operation's outcome against a second
// sharded engine fed the same ops one at a time. The sharded guarantee is
// Admitted/Code/Reason/Violations and release outcomes (Bounds may list a
// different co-resident set when optimistic routing places a component on
// a different shard — see the shard_batch.go package comment). Its blocks
// are disjoint and its names unique, so it then runs a second input that
// is neither: driveReuseDifferential over the random feed-forward corpus.
func TestShardedApplyBatchMatchesSequential(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < 2*seeds; seed++ {
		net, err := topo.DisjointBlocks(4, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Connections {
			net.Connections[i].Deadline = 1000
		}
		// Odd seeds run static-priority chains on the same blocks.
		analyzer := analysis.Integrated{}
		if seed%2 == 1 {
			spify(net, seed%4 == 1)
		}
		seqSE, err := NewShardedEngine(net.Servers, analyzer, 4)
		if err != nil {
			t.Fatal(err)
		}
		batchSE, err := NewShardedEngine(net.Servers, analyzer, 4)
		if err != nil {
			t.Fatal(err)
		}
		ops := randomOps(net, seed, 2*len(net.Connections))
		rng := rand.New(rand.NewSource(seed * 13))
		ctx := context.Background()
		for start := 0; start < len(ops); {
			end := start + 1 + rng.Intn(6)
			if end > len(ops) {
				end = len(ops)
			}
			env := ops[start:end]
			br, err := batchSE.ApplyBatch(ctx, env)
			if err != nil {
				t.Fatalf("seed%d: ApplyBatch: %v", seed, err)
			}
			for k, op := range env {
				step := fmt.Sprintf("seed%d/op%d", seed, start+k)
				switch op.Kind {
				case OpAdmit:
					wantD, wantErr := seqSE.Admit(bg, op.Candidate)
					gotR := br.Results[k]
					if (wantErr == nil) != (gotR.Err == nil) {
						t.Fatalf("%s: admit error diverged: sequential %v, batch %v", step, wantErr, gotR.Err)
					}
					requireSameOutcome(t, step, wantD, gotR.Decision)
				case OpRelease:
					_, wantOK, _ := seqSE.Release(bg, op.Name)
					if wantOK != br.Results[k].Released {
						t.Fatalf("%s: release found diverged: sequential %v, batch %v", step, wantOK, br.Results[k].Released)
					}
				}
			}
			start = end
		}
		if seqSE.Count() != batchSE.Count() {
			t.Fatalf("seed%d: final counts differ: sequential %d, batch %d", seed, seqSE.Count(), batchSE.Count())
		}
		seqNames := make(map[string]bool)
		for _, c := range seqSE.Admitted() {
			seqNames[c.Name] = true
		}
		for _, c := range batchSE.Admitted() {
			if !seqNames[c.Name] {
				t.Fatalf("seed%d: batch admitted %q, sequential did not", seed, c.Name)
			}
		}
		for _, se := range []*ShardedEngine{seqSE, batchSE} {
			requireRouterMatchesShards(t, fmt.Sprintf("seed%d", seed), se)
		}
	}

	for _, tc := range incrementalAnalyzers {
		var merges uint64
		for seed := int64(0); seed < seeds; seed++ {
			net := corpusNet(t, tc.disc, 6, 9, 0.6, seed)
			for _, shards := range []int{2, 4} {
				label := fmt.Sprintf("reuse/%v/seed%d/shards%d", tc, seed, shards)
				merges += driveReuseDifferential(t, label, tc.analyzer, net, shards, seed)
			}
		}
		// Component merges inside multi-op envelopes must not silently drop
		// out of this test: they are what the barrier exists for.
		if merges == 0 {
			t.Fatalf("reuse/%v: the corpus never merged two shards' components", tc)
		}
	}
}

// requireRouterMatchesShards checks, with nothing in flight, that the
// router describes exactly what the shards hold: every claim was confirmed
// or handed back, every connection is recorded on the shard holding it,
// load and refs are recounts of the committed set, a server is owned iff
// referenced — and by the one shard whose connections traverse it.
func requireRouterMatchesShards(t *testing.T, label string, se *ShardedEngine) {
	t.Helper()
	r := &se.router
	if len(r.pending) != 0 || len(r.releasing) != 0 {
		t.Fatalf("%s: claims outstanding with nothing in flight: admits %v, releases %v", label, r.pending, r.releasing)
	}
	refs := make([]int, len(r.refs))
	holder := make([]int, len(r.owner))
	for s := range holder {
		holder[s] = -1
	}
	for i, sh := range se.Stats().PerShard {
		if r.load[i] != sh.Admitted {
			t.Fatalf("%s: router load[%d] = %d, shard holds %d", label, i, r.load[i], sh.Admitted)
		}
		for _, c := range se.Shard(i).Snapshot().Admitted() {
			if rc := r.conns[c.Name]; rc == nil || rc.shard != i {
				t.Fatalf("%s: shard %d holds %q, router records %+v", label, i, c.Name, rc)
			}
			for _, s := range uniqueServers(nil, c.Path, len(holder)) {
				if holder[s] >= 0 && holder[s] != i {
					t.Fatalf("%s: server %d is loaded from shards %d and %d", label, s, holder[s], i)
				}
				holder[s] = i
				refs[s]++
			}
		}
	}
	if len(r.conns) != se.Count() {
		t.Fatalf("%s: router records %d connections, shards hold %d", label, len(r.conns), se.Count())
	}
	for s := range refs {
		if r.refs[s] != refs[s] || r.owner[s] != holder[s] {
			t.Fatalf("%s: server %d: router refs %d owner %d, shards say refs %d owner %d",
				label, s, r.refs[s], r.owner[s], refs[s], holder[s])
		}
	}
}

// driveReuseDifferential replays a schedule that reuses names — re-admit
// of a live name, release then re-admit, double and ghost releases — over
// routes that merge components, as random-size envelopes through a sharded
// engine, against a plain Engine fed the same ops one at a time. Both
// reject the admit of a live name as invalid_spec, the Engine through the
// network's duplicate-name check and the router as already admitted, with
// different messages, so the oracle skips that admit and the sharded side
// must reject it as invalid. Returns the component merges seen.
func driveReuseDifferential(t *testing.T, label string, analyzer analysis.Analyzer, net *topo.Network, shards int, seed int64) uint64 {
	t.Helper()
	eng, err := NewEngine(net.Servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analyzer, shards)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed*17 + int64(shards)))
	live := make(map[string]bool)
	for n := 0; n < 5*len(net.Connections); {
		env := make([]Op, 1+rng.Intn(7))
		for k := range env {
			name := fmt.Sprintf("n%d", rng.Intn(len(net.Connections)))
			if rng.Intn(3) == 0 {
				env[k] = Op{Kind: OpRelease, Name: name}
				continue
			}
			cand := net.Connections[rng.Intn(len(net.Connections))]
			cand.Name = name
			cand.Deadline = 100
			if rng.Intn(6) == 0 {
				// Tight enough to pass only while the route is idle: a deadline
				// a later release could push its holder over (the Integrated
				// bound is not monotone in the admitted set) would have the
				// whole-network oracle reject unrelated components' candidates.
				cand.Deadline = 0.2 + 0.4*rng.Float64()
			}
			env[k] = Op{Kind: OpAdmit, Candidate: cand}
		}
		br, err := se.ApplyBatch(bg, env)
		if err != nil {
			t.Fatalf("%s: ApplyBatch: %v", label, err)
		}
		for k, op := range env {
			step := fmt.Sprintf("%s/op%d", label, n+k)
			got := br.Results[k]
			switch {
			case op.Kind == OpRelease:
				_, want, _ := eng.Release(bg, op.Name)
				if want != got.Released {
					t.Fatalf("%s: release of %q found diverged: engine %v, sharded %v", step, op.Name, want, got.Released)
				}
				delete(live, op.Name)
			case live[op.Candidate.Name]:
				if got.Decision.Code != CodeInvalidSpec || got.Err == nil {
					t.Fatalf("%s: admit of live name %q not rejected as invalid: %+v", step, op.Candidate.Name, got)
				}
			default:
				want, wantErr := eng.Admit(bg, op.Candidate)
				if (wantErr == nil) != (got.Err == nil) {
					t.Fatalf("%s: admit error diverged: engine %v, sharded %v", step, wantErr, got.Err)
				}
				requireSameOutcome(t, step, want, got.Decision)
				live[op.Candidate.Name] = want.Admitted
			}
		}
		if eng.Count() != se.Count() {
			t.Fatalf("%s: count after envelope at op %d: engine %d, sharded %d", label, n, eng.Count(), se.Count())
		}
		n += len(env)
	}
	requireRouterMatchesShards(t, label, se)
	st := se.Stats()
	return st.CrossShardCommits - st.Rebalances
}

// TestReleaseAccountingDeterministic replays one seeded schedule of single
// operations and envelopes on two fresh engines and requires the same
// counters from both: every baseline is built by the request that needs it,
// so which releases shrank, what they scoped and how many baselines were
// materialised depend on the schedule alone.
func TestReleaseAccountingDeterministic(t *testing.T) {
	analyzer := analysis.Integrated{}
	for _, d := range []server.Discipline{server.FIFO, server.StaticPriority} {
		net, err := topo.DisjointBlocks(4, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.Connections {
			net.Connections[i].Deadline = 1000
		}
		if d == server.StaticPriority {
			spify(net, true)
		}
		ops := randomOps(net, 7, 4*len(net.Connections))
		replay := func(shards int) ShardedStats {
			se, err := NewShardedEngine(net.Servers, analyzer, shards)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for start := 0; start < len(ops); {
				end := min(start+1+rng.Intn(6), len(ops))
				if _, err := se.ApplyBatch(bg, ops[start:end]); err != nil {
					t.Fatalf("%s, %d shards: ApplyBatch: %v", d, shards, err)
				}
				start = end
			}
			// Drain in one envelope, so every shard sees a run of releases.
			var drain []Op
			for _, c := range se.Admitted() {
				drain = append(drain, Op{Kind: OpRelease, Name: c.Name})
			}
			if _, err := se.ApplyBatch(bg, drain); err != nil || se.Count() != 0 {
				t.Fatalf("%s, %d shards: drain left %d connections: %v", d, shards, se.Count(), err)
			}
			return se.Stats()
		}
		for _, shards := range []int{1, 4} {
			first, second := replay(shards), replay(shards)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s, %d shards: the same schedule counted differently:\n  %+v\n  %+v", d, shards, first, second)
			}
			if first.FullTests != 0 || first.IncrementalReleases == 0 || first.CompactedReleases == 0 || first.AffectedCount == 0 {
				t.Fatalf("%s, %d shards: schedule must stay incremental and exercise both release modes: %+v", d, shards, first)
			}
		}
	}
}

// TestShardedBatchSingleCommitPerShard pins the sharded pipelining
// invariant: an envelope touching k shards performs exactly k snapshot
// commits (one engine sub-batch each) and never takes the cross path when
// its routes stay within components.
func TestShardedBatchSingleCommitPerShard(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 0, len(net.Connections))
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		ops = append(ops, Op{Kind: OpAdmit, Candidate: net.Connections[i]})
	}
	before := se.SnapshotVersion()
	br, err := se.ApplyBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !r.Decision.Admitted {
			t.Fatalf("op %d not admitted: %+v", i, r.Decision)
		}
	}
	if br.Commits != br.ShardsTouched {
		t.Fatalf("commits %d != shards touched %d", br.Commits, br.ShardsTouched)
	}
	if br.Commits > 4 || br.Commits < 1 {
		t.Fatalf("envelope over a 4-block fabric committed %d times", br.Commits)
	}
	if delta := se.SnapshotVersion() - before; int(delta) != br.Commits {
		t.Fatalf("global version advanced %d, reported %d commits", delta, br.Commits)
	}
	if st := se.Stats(); st.CrossShardCommits != 0 {
		t.Fatalf("disjoint envelope took %d cross-shard commits", st.CrossShardCommits)
	}
	if se.Count() != len(net.Connections) {
		t.Fatalf("count %d, want %d", se.Count(), len(net.Connections))
	}

	// Duplicate admits and ghost releases are rejected per-op with the
	// sequential decisions, without committing anything.
	before = se.SnapshotVersion()
	br, err = se.ApplyBatch(context.Background(), []Op{
		{Kind: OpAdmit, Candidate: net.Connections[0]},
		{Kind: OpRelease, Name: "ghost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Decision.Code != CodeInvalidSpec || br.Results[0].Err == nil {
		t.Fatalf("duplicate admit not rejected: %+v", br.Results[0])
	}
	if br.Results[1].Released {
		t.Fatal("ghost release reported found")
	}
	if br.Commits != 0 || se.SnapshotVersion() != before {
		t.Fatalf("read-only envelope committed (commits=%d)", br.Commits)
	}
}

// TestShardedBatchCrossAdmit drives an envelope whose middle admit bridges
// two shards: the shard-local prefix flushes with one commit per shard,
// the bridge takes exactly one cross-shard commit, and the router stays
// consistent (everything admitted is individually releasable afterwards).
func TestShardedBatchCrossAdmit(t *testing.T) {
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
			t.Fatalf("setup admit %s: %+v err=%v", net.Connections[i].Name, d, err)
		}
	}
	bridge := net.Connections[0]
	bridge.Name = "bridge"
	bridge.Path = []int{0, len(net.Servers) - 1}
	extraA := net.Connections[0]
	extraA.Name = "extraA"
	extraB := net.Connections[len(net.Connections)-1]
	extraB.Name = "extraB"

	br, err := se.ApplyBatch(context.Background(), []Op{
		{Kind: OpAdmit, Candidate: extraA},
		{Kind: OpAdmit, Candidate: bridge},
		{Kind: OpAdmit, Candidate: extraB},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !r.Decision.Admitted {
			t.Fatalf("op %d not admitted: %+v err=%v", i, r.Decision, r.Err)
		}
	}
	st := se.Stats()
	if st.CrossShardCommits == 0 {
		t.Fatal("bridge admission did not take the cross-shard path")
	}
	if se.Count() != len(net.Connections)+3 {
		t.Fatalf("count %d, want %d", se.Count(), len(net.Connections)+3)
	}
	for _, name := range []string{"extraA", "bridge", "extraB"} {
		if _, ok, _ := se.Release(bg, name); !ok {
			t.Fatalf("router lost %q after the cross envelope", name)
		}
	}
}

// TestShardedBatchReleaseReadmit pins the strict-ordering fallback: an
// envelope that releases a name and then re-admits it must resolve like
// the sequential path (release first, fresh admit after), not as a
// duplicate rejection.
func TestShardedBatchReleaseReadmit(t *testing.T) {
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
			t.Fatalf("setup admit: %+v err=%v", d, err)
		}
	}
	name := net.Connections[0].Name
	br, err := se.ApplyBatch(context.Background(), []Op{
		{Kind: OpRelease, Name: name},
		{Kind: OpAdmit, Candidate: net.Connections[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Results[0].Released {
		t.Fatalf("release of %q not found", name)
	}
	if !br.Results[1].Decision.Admitted {
		t.Fatalf("re-admit of %q rejected: %+v err=%v", name, br.Results[1].Decision, br.Results[1].Err)
	}
	if se.Count() != len(net.Connections) {
		t.Fatalf("count %d, want %d", se.Count(), len(net.Connections))
	}
	if _, ok, _ := se.Release(bg, name); !ok {
		t.Fatalf("router lost %q after release+readmit envelope", name)
	}
}

// TestShardedBatchStraddlesRebalance exercises envelopes whose releases
// split a component while an empty shard is available — the
// release-triggered rebalance migrates a component mid-workload — with
// concurrent envelopes on a disjoint block. Run under -race with -count=3
// in CI; the assertions are pure invariants so interleavings are free.
func TestShardedBatchStraddlesRebalance(t *testing.T) {
	net, err := topo.DisjointBlocks(2, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	half := len(net.Connections) / 2
	blockA, blockB := net.Connections[:half], net.Connections[half:]

	// A chain component on block A's servers whose middle link, once
	// released, splits it in two: base is the block's own connections,
	// chain adds bridging 2-hop links over consecutive servers.
	var chain []topo.Connection
	for i := 0; i+1 < 4; i++ {
		c := blockA[0]
		c.Name = fmt.Sprintf("chain%d", i)
		c.Path = []int{i, i + 1}
		chain = append(chain, c)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 2)
	go func() {
		// Churn the chain: admit all, release the middle (splitting the
		// component and, with shard 2 kept empty, inviting a rebalance),
		// re-admit, repeat.
		defer wg.Done()
		ctx := context.Background()
		for round := 0; round < 6; round++ {
			var admits []Op
			for _, c := range chain {
				admits = append(admits, Op{Kind: OpAdmit, Candidate: c})
			}
			if _, err := se.ApplyBatch(ctx, admits); err != nil {
				errc <- err
				return
			}
			if _, err := se.ApplyBatch(ctx, []Op{
				{Kind: OpRelease, Name: "chain1"},
				{Kind: OpRelease, Name: "chain0"},
				{Kind: OpRelease, Name: "chain2"},
			}); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		// Concurrent disjoint envelopes on block B.
		defer wg.Done()
		ctx := context.Background()
		for round := 0; round < 6; round++ {
			var ops []Op
			for _, c := range blockB {
				ops = append(ops, Op{Kind: OpAdmit, Candidate: c})
			}
			if _, err := se.ApplyBatch(ctx, ops); err != nil {
				errc <- err
				return
			}
			ops = ops[:0]
			for _, c := range blockB {
				ops = append(ops, Op{Kind: OpRelease, Name: c.Name})
			}
			if _, err := se.ApplyBatch(ctx, ops); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Everything churned back out; the router must agree with the shards.
	if n := se.Count(); n != 0 {
		t.Fatalf("count %d after full churn, want 0: %v", n, se.Admitted())
	}
	// The fabric must still be fully usable: admit both blocks again.
	for _, c := range append(append([]topo.Connection(nil), blockA...), blockB...) {
		if d, err := se.Admit(bg, c); err != nil || !d.Admitted {
			t.Fatalf("post-churn admit %s: %+v err=%v", c.Name, d, err)
		}
	}
}

// twoShardSetup admits DisjointBlocks(2, 2, 0.3) into a 2-shard engine on
// the given analyzer and returns one fresh candidate per block, ordered by
// the shard their block landed on (so cands[0]'s sub-batch runs first), plus
// a route bridging the two blocks.
func twoShardSetup(t *testing.T, analyzer analysis.Analyzer) (se *ShardedEngine, net *topo.Network, cands [2]topo.Connection, bridge topo.Connection) {
	t.Helper()
	net, err := topo.DisjointBlocks(2, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	se, err = NewShardedEngine(net.Servers, analyzer, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		if d, err := se.Admit(bg, net.Connections[i]); err != nil || !d.Admitted {
			t.Fatalf("setup admit %s: %+v err=%v", net.Connections[i].Name, d, err)
		}
	}
	first, last := net.Connections[0], net.Connections[len(net.Connections)-1]
	if se.router.conns[first.Name].shard > se.router.conns[last.Name].shard {
		first, last = last, first
	}
	cands[0], cands[1] = first, last
	cands[0].Name, cands[1].Name = "extra0", "extra1"
	bridge = net.Connections[0]
	bridge.Name = "bridge"
	bridge.Path = []int{0, len(net.Servers) - 1}
	return se, net, cands, bridge
}

// tripwire is the decomposed analysis firing once it has analyzed a trial
// containing the named connection: the analysis that trips it completes,
// the next one runs after the fault — a deterministic "the deadline
// (cancel) or the soft budget (a flag) expired between two operations". Its
// baseline build fails, so every test is a full analysis. It is the
// engine's own analyzer, armed after setup.
type tripwire struct {
	analysis.Decomposed
	name string
	fire func()
}

func (*tripwire) NewBaseline(*topo.Network) (*analysis.Baseline, error) {
	return nil, errors.New("tripwire: no baseline")
}

func (tw *tripwire) AnalyzeContext(ctx context.Context, net *topo.Network) (*analysis.Result, error) {
	res, err := tw.Decomposed.AnalyzeContext(ctx, net)
	for _, c := range net.Connections {
		if c.Name == tw.name {
			tw.fire()
		}
	}
	return res, err
}

// TestShardedBatchCancelReportsCommits pins what a client of a shed
// envelope stands on: a cancelled envelope reports how many shards had
// already committed, and reports zero exactly when nothing was committed
// anywhere (so it may be re-run).
func TestShardedBatchCancelReportsCommits(t *testing.T) {
	t.Run("after first shard", func(t *testing.T) {
		tw := &tripwire{}
		se, net, cands, _ := twoShardSetup(t, tw)
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		tw.name, tw.fire = cands[0].Name, cancel
		br, err := se.ApplyBatch(ctx, []Op{
			{Kind: OpAdmit, Candidate: cands[0]},
			{Kind: OpAdmit, Candidate: cands[1]},
		})
		if !IsCanceled(err) {
			t.Fatalf("err = %v, want cancellation", err)
		}
		if br == nil || br.Commits != 1 || br.ShardsTouched != 1 || br.Results != nil {
			t.Fatalf("cancelled envelope reported %+v, want 1 commit on 1 shard and no results", br)
		}
		if se.Count() != len(net.Connections)+1 {
			t.Fatalf("count %d, want the first shard's admit only (%d)", se.Count(), len(net.Connections)+1)
		}
	})
	t.Run("before any commit", func(t *testing.T) {
		tw := &tripwire{}
		se, net, cands, _ := twoShardSetup(t, tw)
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		tw.name, tw.fire = cands[0].Name, cancel
		second := cands[0]
		second.Name = "extra0b"
		before := se.SnapshotVersion()
		br, err := se.ApplyBatch(ctx, []Op{
			{Kind: OpAdmit, Candidate: cands[0]},
			{Kind: OpAdmit, Candidate: second},
			{Kind: OpAdmit, Candidate: cands[1]},
		})
		if !IsCanceled(err) {
			t.Fatalf("err = %v, want cancellation", err)
		}
		if br == nil || br.Commits != 0 || br.ShardsTouched != 0 {
			t.Fatalf("cancelled envelope reported %+v, want zero commits", br)
		}
		if se.Count() != len(net.Connections) || se.SnapshotVersion() != before {
			t.Fatalf("zero-commit cancellation mutated the engine: count %d version %d -> %d",
				se.Count(), before, se.SnapshotVersion())
		}
		// The claims of the cancelled envelope were rolled back: the same
		// names admit cleanly on a re-run.
		br, err = se.ApplyBatch(bg, []Op{
			{Kind: OpAdmit, Candidate: cands[0]},
			{Kind: OpAdmit, Candidate: second},
			{Kind: OpAdmit, Candidate: cands[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range br.Results {
			if !r.Decision.Admitted {
				t.Fatalf("re-run op %d not admitted: %+v err=%v", i, r.Decision, r.Err)
			}
		}
	})
	// The in-envelope name reuse is a barrier, so the first two admits run
	// as its window under the exclusive lock; cut off after shard 0, what
	// shard 0 committed must still reach the router.
	t.Run("inside a barrier's window", func(t *testing.T) {
		tw := &tripwire{}
		se, _, cands, _ := twoShardSetup(t, tw)
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		tw.name, tw.fire = cands[0].Name, cancel
		br, err := se.ApplyBatch(ctx, []Op{
			{Kind: OpAdmit, Candidate: cands[0]},
			{Kind: OpAdmit, Candidate: cands[1]},
			{Kind: OpAdmit, Candidate: cands[0]},
		})
		if !IsCanceled(err) {
			t.Fatalf("err = %v, want cancellation", err)
		}
		if br == nil || br.Commits != 1 {
			t.Fatalf("cancelled envelope reported %+v, want 1 commit", br)
		}
		requireRouterMatchesShards(t, "after the cut-off", se)
		if _, ok, _ := se.Release(bg, cands[0].Name); !ok {
			t.Fatalf("router lost %q, committed before the cut-off", cands[0].Name)
		}
	})
	// Y's route spans both shards until R is gone, so where Y goes depends
	// on the release ahead of it: routing must not act on that release
	// before it has committed, or a cut-off leaves Y on one shard and R on
	// the other, both loading server 3 and neither analysis seeing both.
	t.Run("release ahead of a dependent admit", func(t *testing.T) {
		tw := &tripwire{}
		se, err := NewShardedEngine(fabric(4), tw, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []topo.Connection{conn("P", 1000, 0), conn("R", 1000, 3)} {
			if d, err := se.Admit(bg, c); err != nil || !d.Admitted {
				t.Fatalf("setup admit %s: %+v err=%v", c.Name, d, err)
			}
		}
		if p, r := se.router.conns["P"].shard, se.router.conns["R"].shard; p != 0 || r != 1 {
			t.Fatalf("setup placed P on shard %d and R on shard %d, want 0 and 1", p, r)
		}
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		tw.name, tw.fire = "Y", cancel
		_, err = se.ApplyBatch(ctx, []Op{
			{Kind: OpRelease, Name: "R"},
			{Kind: OpAdmit, Candidate: conn("Y", 1000, 0, 3)},
			{Kind: OpAdmit, Candidate: conn("Z", 1000, 2)},
		})
		if !IsCanceled(err) {
			t.Fatalf("err = %v, want cancellation", err)
		}
		requireRouterMatchesShards(t, "after the cut-off", se)
		held := make(map[string]bool)
		for _, c := range se.Admitted() {
			held[c.Name] = true
		}
		if held["Y"] && held["R"] {
			t.Fatalf("Y was admitted beside R, which the envelope releases ahead of it: %v", se.Admitted())
		}
	})
}

// TestShardedBatchSoftExpiryCompletes is the other half of the cut-off
// tests above: when it is the SOFT budget that runs out after shard 0
// committed, nothing is cancelled — the envelope completes, every operation
// is decided and the router agrees with the shards. (Re-running a cut-off
// envelope on a second analyzer, as the engine's callers once did, could
// only shed this one: a shard had already committed.)
func TestShardedBatchSoftExpiryCompletes(t *testing.T) {
	tw := &tripwire{}
	se, net, cands, _ := twoShardSetup(t, tw)
	var expired atomic.Bool
	tw.name, tw.fire = cands[0].Name, func() { expired.Store(true) }
	br, err := se.ApplyBatch(analysis.WithBudget(bg, expired.Load), []Op{
		{Kind: OpAdmit, Candidate: cands[0]},
		{Kind: OpAdmit, Candidate: cands[1]},
	})
	if err != nil || !expired.Load() {
		t.Fatalf("err = %v, budget expired %v; want a completed envelope whose budget ran out", err, expired.Load())
	}
	if br.Commits != 2 || br.ShardsTouched != 2 {
		t.Fatalf("envelope reported %+v, want one commit on each of 2 shards", br)
	}
	for i, r := range br.Results {
		if !r.Decision.Admitted {
			t.Fatalf("op %d not admitted: %+v err=%v", i, r.Decision, r.Err)
		}
	}
	if se.Count() != len(net.Connections)+2 {
		t.Fatalf("count %d, want both admits (%d)", se.Count(), len(net.Connections)+2)
	}
	requireRouterMatchesShards(t, "after the soft expiry", se)
}

// TestShardedBatchDegraded pins the degraded envelope on a multi-shard
// engine: the expired budget reaches every sub-batch and the cross-shard
// commit through the context, so the envelope still commits once per shard,
// on bounds between the primary analyzer's and the decomposed ones, and
// leaves no degraded baseline behind.
func TestShardedBatchDegraded(t *testing.T) {
	se, net, cands, bridge := twoShardSetup(t, analysis.Integrated{})
	// The oracles: Controllers over the whole fabric on the primary and on
	// the decomposed analyzer. Components are independent, so a candidate's
	// own bound (the last entry) compares with the shard-scoped decision's.
	var oracles [2]*Controller
	for i, a := range []analysis.Analyzer{analysis.Integrated{}, analysis.Decomposed{}} {
		o, err := New(net.Servers, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range net.Connections {
			if d, err := o.Admit(c); err != nil || !d.Admitted {
				t.Fatalf("oracle setup admit %s: %+v err=%v", c.Name, d, err)
			}
		}
		oracles[i] = o
	}
	// sandwiched admits cand on both oracles and requires the degraded
	// decision to be an admit whose last n bounds lie between theirs.
	sandwiched := func(label string, cand topo.Connection, got Decision, n int) {
		t.Helper()
		lo, err := oracles[0].Admit(cand)
		if err != nil || !lo.Admitted {
			t.Fatalf("%s: primary oracle %+v err=%v", label, lo, err)
		}
		hi, err := oracles[1].Admit(cand)
		if err != nil || !hi.Admitted || !got.Admitted {
			t.Fatalf("%s: engine %+v decomposed oracle %+v err=%v", label, got, hi, err)
		}
		requireBetween(t, label, got.Bounds, lo.Bounds, hi.Bounds, n)
	}

	ctx := expiredBudget()
	before := se.Stats()
	br, err := se.ApplyBatch(ctx, []Op{
		{Kind: OpAdmit, Candidate: cands[0]},
		{Kind: OpAdmit, Candidate: cands[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Commits != 2 || br.ShardsTouched != 2 || !analysis.Degraded(ctx) {
		t.Fatalf("degraded 2-shard envelope: commits %d on %d shards, degraded %v; want one per shard, degraded",
			br.Commits, br.ShardsTouched, analysis.Degraded(ctx))
	}
	st := se.Stats()
	if got := st.BatchCommits - before.BatchCommits; got != 2 {
		t.Fatalf("batch_commits moved by %d, want 2", got)
	}
	for i, sh := range se.shards {
		if sh.Snapshot().cachedBaseline() != nil {
			t.Fatalf("shard %d kept a degraded extension as its baseline", i)
		}
	}
	for i, r := range br.Results {
		sandwiched(fmt.Sprintf("op %d", i), cands[i], r.Decision, 1)
	}

	// The next test has no budget: it rebuilds the baselines and answers
	// exactly what the primary oracle does.
	probe := cands[0]
	probe.Name = "probe"
	got, err := se.Test(bg, probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracles[0].Test(probe)
	if err != nil {
		t.Fatal(err)
	}
	if got.Admitted != want.Admitted || got.Bounds[len(got.Bounds)-1] != want.Bounds[len(want.Bounds)-1] {
		t.Fatalf("undegraded test after the degraded envelope: engine %+v, oracle %+v", got, want)
	}

	// The bridge merges both shards' components: one cross-shard commit,
	// one degraded analysis of the union (now the whole network).
	st = se.Stats()
	br, err = se.ApplyBatch(expiredBudget(), []Op{{Kind: OpAdmit, Candidate: bridge}})
	if err != nil {
		t.Fatal(err)
	}
	sandwiched("degraded bridge", bridge, br.Results[0].Decision, len(br.Results[0].Decision.Bounds))
	if got := se.Stats().CrossShardCommits - st.CrossShardCommits; got != 1 || br.Commits != 1 {
		t.Fatalf("degraded bridge: %d cross-shard commits, envelope reported %d, want 1 and 1", got, br.Commits)
	}
}

// TestShardedBatchSpreadsNewComponents pins that claims count toward shard
// load: one envelope carrying several brand-new components (delayd's
// start-up pre-admission) spreads them over the shards like one-at-a-time
// admissions do, instead of piling every component onto shard 0.
func TestShardedBatchSpreadsNewComponents(t *testing.T) {
	net, err := topo.DisjointBlocks(4, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(net.Servers, analysis.Integrated{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(net.Connections))
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
		ops[i] = Op{Kind: OpAdmit, Candidate: net.Connections[i]}
	}
	br, err := se.ApplyBatch(bg, ops)
	if err != nil {
		t.Fatal(err)
	}
	if br.Commits != 4 || br.ShardsTouched != 4 {
		t.Fatalf("4 new components on 4 shards: %d commits on %d shards, want 4 and 4", br.Commits, br.ShardsTouched)
	}
	for i, sh := range se.Stats().PerShard {
		if sh.Admitted != len(net.Connections)/4 {
			t.Fatalf("shard %d holds %d connections, want one block (%d)", i, sh.Admitted, len(net.Connections)/4)
		}
	}
	// Rejected and released claims give their load back.
	for i, l := range se.router.load {
		if l != len(net.Connections)/4 {
			t.Fatalf("router load[%d] = %d after the envelope, want %d", i, l, len(net.Connections)/4)
		}
	}
}

// TestOneShardCountsSubBatches pins what routing one shard like many does
// to the envelope counters: they count the sub-batches that reach a shard.
// Releasing and re-admitting one name in an envelope is a barrier, so it
// runs as two windows, two envelopes and two commits; a release of an
// unknown name reaches no shard and counts nothing.
func TestOneShardCountsSubBatches(t *testing.T) {
	se, err := NewShardedEngine(fabric(2), analysis.Integrated{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := conn("a", 1000, 0, 1)
	if d, err := se.Admit(bg, a); err != nil || !d.Admitted {
		t.Fatalf("setup admit: %+v err=%v", d, err)
	}
	before := se.Stats()
	br, err := se.ApplyBatch(bg, []Op{{Kind: OpRelease, Name: "a"}, {Kind: OpAdmit, Candidate: a}})
	if err != nil || !br.Results[0].Released || !br.Results[1].Decision.Admitted || br.Commits != 2 {
		t.Fatalf("release then re-admit: %+v err=%v, want both done in 2 commits", br, err)
	}
	st := se.Stats()
	if envs, commits := st.BatchEnvelopes-before.BatchEnvelopes, st.BatchCommits-before.BatchCommits; envs != 2 || commits != 2 {
		t.Fatalf("barrier envelope counted %d envelopes and %d commits, want 2 and 2", envs, commits)
	}
	if _, ok, err := se.Release(bg, "nobody"); ok || err != nil {
		t.Fatalf("release of an unknown name: ok=%v err=%v", ok, err)
	}
	if after := se.Stats(); after.BatchEnvelopes != st.BatchEnvelopes || after.BatchOps != st.BatchOps {
		t.Fatalf("unknown release counted: envelopes %d -> %d, ops %d -> %d",
			st.BatchEnvelopes, after.BatchEnvelopes, st.BatchOps, after.BatchOps)
	}
	requireRouterMatchesShards(t, "one shard", se)
}
