package admission

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// requireSameDecision asserts that two decisions are identical in every
// field, bounds compared bitwise: the engine's incremental path must be
// indistinguishable from the controller's full re-analysis.
func requireSameDecision(t *testing.T, label string, want, got Decision) {
	t.Helper()
	if want.Admitted != got.Admitted || want.Code != got.Code || want.Reason != got.Reason {
		t.Fatalf("%s: decision diverged:\n  controller %+v\n  engine     %+v", label, want, got)
	}
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("%s: violations %d vs %d", label, len(want.Violations), len(got.Violations))
	}
	for i := range want.Violations {
		if want.Violations[i] != got.Violations[i] {
			t.Errorf("%s: violation %d: %+v vs %+v", label, i, want.Violations[i], got.Violations[i])
		}
	}
	if len(want.Bounds) != len(got.Bounds) {
		t.Fatalf("%s: bounds %d vs %d", label, len(want.Bounds), len(got.Bounds))
	}
	for i := range want.Bounds {
		if want.Bounds[i] != got.Bounds[i] {
			t.Errorf("%s: bound %d: controller %v engine %v", label, i, want.Bounds[i], got.Bounds[i])
		}
	}
}

// driveDifferential replays the same admission sequence through a
// Controller (full re-analysis under the caller's serialization) and a
// ShardedEngine of the given shard count (snapshots + incremental analysis)
// and asserts identical decisions and errors at every step: identical
// bounds too at one shard, the candidate's own bound at more, where a
// shard's trial is the candidate's components only. Candidates routinely
// merge components, so at more than one shard the cross-shard path runs
// throughout.
func driveDifferential(t *testing.T, label string, analyzer analysis.Analyzer, net *topo.Network, shards int) {
	t.Helper()
	ctrl, err := New(net.Servers, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	se := newEngine(t, net.Servers, analyzer, shards)
	for i, cand := range net.Connections {
		step := fmt.Sprintf("%s/shards%d/conn%d", label, shards, i)
		wantD, wantErr := ctrl.Test(cand)
		gotD, gotErr := se.Test(bg, cand)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: test error diverged: controller %v, engine %v", step, wantErr, gotErr)
		}
		requireSameAt(t, shards, step+"/test", wantD, gotD)

		wantD, wantErr = ctrl.Admit(cand)
		gotD, gotErr = se.Admit(bg, cand)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: admit error diverged: controller %v, engine %v", step, wantErr, gotErr)
		}
		requireSameAt(t, shards, step+"/admit", wantD, gotD)
		if ctrl.Count() != se.Count() {
			t.Fatalf("%s: count diverged: controller %d, engine %d", step, ctrl.Count(), se.Count())
		}
	}
	if shards > 1 {
		return
	}
	// One shard: every admission extended a baseline and committed once.
	if st := se.Stats(); st.FullTests != 0 {
		t.Fatalf("%s: engine left the incremental path: %+v", label, st)
	}
	if v := se.SnapshotVersion(); v != uint64(ctrl.Count()) {
		t.Fatalf("%s: snapshot version %d after %d admissions", label, v, ctrl.Count())
	}
}

// spify turns a FIFO network into a static-priority one, classes 0-2 dealt
// round-robin over the connections (the corpus analysis.Integrated's
// static-priority chains are pinned on); withLatency also gives every
// server a fixed latency.
func spify(net *topo.Network, withLatency bool) {
	for s := range net.Servers {
		net.Servers[s].Discipline = server.StaticPriority
		if withLatency {
			net.Servers[s].Latency = 0.05 * float64(1+s%3)
		}
	}
	for c := range net.Connections {
		net.Connections[c].Priority = c % 3
	}
}

// grify turns a FIFO network into a guaranteed-rate one for
// analysis.GuaranteedRateNetworkCurve: every server guaranteed-rate with a
// latency, every connection reserving its sustained rate, so the
// reservations fit wherever the network is stable.
func grify(net *topo.Network) {
	for s := range net.Servers {
		net.Servers[s].Discipline = server.GuaranteedRate
		net.Servers[s].Latency = 0.05 * float64(1+s%3)
	}
	for c := range net.Connections {
		net.Connections[c].Rate = net.Connections[c].Bucket.Rho
	}
}

// corpusNet is one network of the 26-seed differential corpus, of
// discipline d: static-priority (odd seeds with latencies) for
// analysis.Integrated's static-priority chains, guaranteed-rate for
// analysis.GuaranteedRateNetworkCurve.
func corpusNet(t *testing.T, d server.Discipline, nServers, nConns int, util float64, seed int64) *topo.Network {
	t.Helper()
	net, err := topo.RandomFeedforward(nServers, nConns, util, seed)
	if err != nil {
		t.Fatal(err)
	}
	switch d {
	case server.StaticPriority:
		spify(net, seed%2 == 1)
	case server.GuaranteedRate:
		grify(net)
	}
	return net
}

// corpusCase is an analyzer and the discipline of the corpus it runs on.
type corpusCase struct {
	analyzer analysis.Analyzer
	disc     server.Discipline
}

func (c corpusCase) String() string { return c.analyzer.Name() + "/" + c.disc.String() }

// incrementalAnalyzers are the analyzers the engine accelerates, all four,
// Integrated on FIFO and on static-priority networks.
var incrementalAnalyzers = []corpusCase{{analysis.Integrated{}, server.FIFO}, {analysis.Decomposed{}, server.FIFO},
	{analysis.Integrated{}, server.StaticPriority}, {analysis.ServiceCurve{}, server.FIFO},
	{analysis.GuaranteedRateNetworkCurve{}, server.GuaranteedRate}}

// fullOnly is an analyzer whose baseline build fails, which drives the
// engine's one fallback, the full path.
type fullOnly struct{ analysis.Analyzer }

func (fullOnly) NewBaseline(*topo.Network) (*analysis.Baseline, error) {
	return nil, errors.New("fullOnly: no baseline")
}

// deadlineCorpusNet is corpus network seed for tc with a deadline mix drawn
// from the same seed: loose (always fits), tight (often violated), and one
// absent (spec error path).
func deadlineCorpusNet(t *testing.T, tc corpusCase, seed int64) *topo.Network {
	t.Helper()
	net := corpusNet(t, tc.disc, 6, 9, 0.6, seed)
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
	return net
}

// TestEngineMatchesControllerOnRandomNetworks is the differential
// acceptance test: on 26 randomized feedforward networks per analyzer with
// a mix of loose and tight deadlines, the one-shard engine's decisions must
// be bit-identical to the controller's at every admission step, for every
// incremental analyzer, without one full analysis.
func TestEngineMatchesControllerOnRandomNetworks(t *testing.T) {
	for _, tc := range incrementalAnalyzers {
		for seed := int64(0); seed < 26; seed++ {
			driveDifferential(t, fmt.Sprintf("%v/seed%d", tc, seed), tc.analyzer, deadlineCorpusNet(t, tc, seed), 1)
		}
	}
}

// TestShardedMatchesEngineOnRandomNetworks runs the same corpus at 2 and 4
// shards: every decision must match the controller's — and so, by
// TestEngineMatchesControllerOnRandomNetworks, the one-shard engine's — in
// outcome and candidate bound. Candidates routinely merge components, so
// the cross-shard path is exercised throughout.
func TestShardedMatchesEngineOnRandomNetworks(t *testing.T) {
	for _, tc := range incrementalAnalyzers {
		for seed := int64(0); seed < 26; seed++ {
			net := deadlineCorpusNet(t, tc, seed)
			for _, shards := range []int{2, 4} {
				driveDifferential(t, fmt.Sprintf("%v/seed%d", tc, seed), tc.analyzer, net, shards)
			}
		}
	}
}

// TestEngineMatchesControllerFullPath pins the full path — what a cross-shard
// union test and an expired budget also run — on an analyzer whose baseline
// build fails (ServiceCurve behind fullOnly): every decision equals the
// controller's, and every test counts as a full one.
func TestEngineMatchesControllerFullPath(t *testing.T) {
	net, err := topo.RandomFeedforward(5, 8, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 50
	}
	for _, shards := range []int{1, 2} {
		ctrl, err := New(net.Servers, analysis.ServiceCurve{})
		if err != nil {
			t.Fatal(err)
		}
		se := newEngine(t, net.Servers, fullOnly{analysis.ServiceCurve{}}, shards)
		for i, cand := range net.Connections {
			wantD, _ := ctrl.Admit(cand)
			gotD, _ := se.Admit(bg, cand)
			requireSameAt(t, shards, fmt.Sprintf("full/shards%d/conn%d", shards, i), wantD, gotD)
		}
		st := se.Stats()
		if st.IncrementalTests != 0 || st.FullTests == 0 {
			t.Fatalf("%d shards: ServiceCurve engine ran incremental tests: %+v", shards, st)
		}
	}
}

// TestEngineUsesIncrementalPath asserts the tentpole actually engages: a
// second admission against a promoted baseline must count as incremental.
func TestEngineUsesIncrementalPath(t *testing.T) {
	net, err := topo.RandomFeedforward(6, 6, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, net.Servers, analysis.Integrated{}, 1)
	for i := range net.Connections {
		net.Connections[i].Deadline = 100
		if _, err := eng.Admit(bg, net.Connections[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.IncrementalTests == 0 {
		t.Fatalf("no incremental tests recorded: %+v", st)
	}
	if st.AffectedCount != uint64(len(net.Connections)) {
		t.Fatalf("affected histogram count %d, want %d", st.AffectedCount, len(net.Connections))
	}
	if v := eng.SnapshotVersion(); v != uint64(len(net.Connections)) {
		t.Fatalf("version %d after %d commits", v, len(net.Connections))
	}
}

// TestEngineRemoveRebuilds checks that a release and a release of an
// unknown name leave later tests matching a fresh controller over the same
// admitted set, at one and two shards.
func TestEngineRemoveRebuilds(t *testing.T) {
	net, err := topo.RandomFeedforward(5, 7, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 100
	}
	for _, shards := range []int{1, 2} {
		eng := newEngine(t, net.Servers, analysis.Integrated{}, shards)
		for _, c := range net.Connections[:6] {
			if _, err := eng.Admit(bg, c); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok, _ := eng.Release(bg, net.Connections[2].Name); !ok {
			t.Fatal("remove failed")
		}
		if _, ok, _ := eng.Release(bg, "no-such-connection"); ok {
			t.Fatal("removed a connection that does not exist")
		}
		ctrl, err := New(net.Servers, analysis.Integrated{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range eng.Admitted() {
			if _, err := ctrl.Admit(c); err != nil {
				t.Fatal(err)
			}
		}
		cand := net.Connections[6]
		wantD, _ := ctrl.Test(cand)
		gotD, _ := eng.Test(bg, cand)
		requireSameAt(t, shards, fmt.Sprintf("after-remove/shards%d", shards), wantD, gotD)
	}
}

// TestEngineConcurrentAdmit hammers Admit from many goroutines; under
// -race this is the data-race check for the snapshot/commit protocol, and
// the final set must be exactly the admitted decisions.
func TestEngineConcurrentAdmit(t *testing.T) {
	net, err := topo.RandomFeedforward(6, 1, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, net.Servers, analysis.Integrated{}, 1)
	template := net.Connections[0]
	template.Deadline = 1000

	const workers = 8
	const perWorker = 4
	admitted := make([]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cand := template
				cand.Name = fmt.Sprintf("w%d-%d", g, i)
				d, err := eng.Admit(bg, cand)
				if err != nil {
					t.Errorf("admit w%d-%d: %v", g, i, err)
					return
				}
				if d.Admitted {
					admitted[g]++
				}
				eng.Test(bg, cand) // concurrent reads against moving snapshots
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, n := range admitted {
		total += n
	}
	if eng.Count() != total {
		t.Fatalf("count %d, admitted decisions %d", eng.Count(), total)
	}
	if v := eng.SnapshotVersion(); v != uint64(total) {
		t.Fatalf("version %d after %d commits", v, total)
	}
	// The committed set must still prove every deadline under a full
	// re-analysis, regardless of commit interleaving.
	final := &topo.Network{Servers: eng.Servers(), Connections: eng.Admitted()}
	res, err := analysis.Integrated{}.Analyze(final)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range final.Connections {
		if res.Bound(i) > c.Deadline {
			t.Errorf("committed connection %s violates its deadline: %g > %g", c.Name, res.Bound(i), c.Deadline)
		}
	}
}

func TestAffectedSetClosure(t *testing.T) {
	// Chain of pairwise-overlapping connections: 0-1, 1-2, 2-3, plus an
	// isolated connection on server 5. A candidate at server 0 must taint
	// the whole chain transitively but never the isolated connection.
	admitted := []topo.Connection{
		{Name: "c01", Path: []int{0, 1}},
		{Name: "c12", Path: []int{1, 2}},
		{Name: "c23", Path: []int{2, 3}},
		{Name: "iso", Path: []int{5}},
	}
	cand := topo.Connection{Name: "cand", Path: []int{0}}
	conns, tainted := AffectedSet(6, admitted, cand)
	if want := []int{0, 1, 2}; len(conns) != len(want) || conns[0] != 0 || conns[1] != 1 || conns[2] != 2 {
		t.Fatalf("affected %v, want %v", conns, want)
	}
	for s, want := range []bool{true, true, true, true, false, false} {
		if tainted[s] != want {
			t.Errorf("tainted[%d] = %v, want %v", s, tainted[s], want)
		}
	}

	// Interference only propagates downstream of the first tainted hop:
	// a connection whose path merely ends at a tainted server taints
	// nothing new upstream of it.
	admitted = []topo.Connection{
		{Name: "up", Path: []int{4, 0}}, // joins the tainted server at its tail
		{Name: "side", Path: []int{4}},  // shares only the upstream server
	}
	conns, tainted = AffectedSet(6, admitted, cand)
	if len(conns) != 1 || conns[0] != 0 {
		t.Fatalf("affected %v, want [0]", conns)
	}
	if tainted[4] {
		t.Error("upstream server tainted: interference closure must be downstream-only")
	}
}

func TestAffectedBucketBoundsIsACopy(t *testing.T) {
	b := AffectedBucketBounds()
	b[0] = 99
	if AffectedBucketBounds()[0] == 99 {
		t.Fatal("AffectedBucketBounds leaked the internal slice")
	}
}
