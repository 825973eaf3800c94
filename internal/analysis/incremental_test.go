package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// requireSameResult asserts bit-identical bounds and backlogs.
func requireSameResult(t *testing.T, label string, full, incr *Result) {
	t.Helper()
	if full.Algorithm != incr.Algorithm {
		t.Fatalf("%s: algorithm %q vs %q", label, full.Algorithm, incr.Algorithm)
	}
	if len(full.Bounds) != len(incr.Bounds) {
		t.Fatalf("%s: bounds length %d vs %d", label, len(full.Bounds), len(incr.Bounds))
	}
	for i := range full.Bounds {
		if full.Bounds[i] != incr.Bounds[i] {
			t.Errorf("%s: bound %d: full %v incremental %v", label, i, full.Bounds[i], incr.Bounds[i])
		}
	}
	for s := range full.Backlogs {
		if full.Backlog(s) != incr.Backlog(s) {
			t.Errorf("%s: backlog %d: full %v incremental %v", label, s, full.Backlog(s), incr.Backlog(s))
		}
	}
}

// requireSameStages asserts bit-identical stage lists: every delay, and the
// servers each stage covers.
func requireSameStages(t *testing.T, label string, want, got [][]Stage) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d stage lists, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Errorf("%s: conn %d: %d stages, want %d", label, i, len(got[i]), len(want[i]))
			continue
		}
		for j, st := range want[i] {
			if math.Float64bits(st.Delay) != math.Float64bits(got[i][j].Delay) {
				t.Errorf("%s: conn %d stage %d: delay %v, want %v", label, i, j, got[i][j].Delay, st.Delay)
			}
			if !slices.Equal(st.Servers, got[i][j].Servers) {
				t.Errorf("%s: conn %d stage %d: covers servers %v, want %v", label, i, j, got[i][j].Servers, st.Servers)
			}
		}
	}
}

// requireStagesOfFull asserts that a trial's baseline breaks its bounds
// down exactly as a baseline of its network built from scratch does: the
// trial replays its clean units' recorded delays and hop counts, and its
// stages are rebuilt from them.
func requireStagesOfFull(t *testing.T, label string, a Analyzer, net *topo.Network, trial *Baseline) {
	t.Helper()
	full, err := a.NewBaseline(net)
	if err != nil {
		t.Fatalf("%s: baseline from scratch: %v", label, err)
	}
	requireSameStages(t, label, full.Stages(), trial.Stages())
}

// extendAndCompare splits net into (all but last connection) + candidate,
// runs baseline+extend, and compares against the full analysis of net.
func extendAndCompare(t *testing.T, label string, a Analyzer, net *topo.Network) *Extension {
	t.Helper()
	if len(net.Connections) == 0 {
		t.Fatalf("%s: network has no connections", label)
	}
	base := &topo.Network{Servers: net.Servers, Connections: net.Connections[:len(net.Connections)-1]}
	cand := net.Connections[len(net.Connections)-1]

	bl, err := a.NewBaseline(base)
	if err != nil {
		t.Fatalf("%s: baseline: %v", label, err)
	}
	ext, err := bl.ExtendContext(context.Background(), cand)
	if err != nil {
		t.Fatalf("%s: extend: %v", label, err)
	}
	full, err := a.Analyze(net)
	if err != nil {
		t.Fatalf("%s: full analyze: %v", label, err)
	}
	requireSameResult(t, label, full, ext.Result())
	requireStagesOfFull(t, label, a, net, ext.Promote())
	return ext
}

func TestExtendMatchesFullOnRandomNetworks(t *testing.T) {
	for _, a := range []Analyzer{Decomposed{}, Integrated{}} {
		for seed := int64(0); seed < 12; seed++ {
			net, err := topo.RandomFeedforward(6, 8, 0.5, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range net.Connections {
				net.Connections[i].Deadline = 100
			}
			extendAndCompare(t, fmt.Sprintf("%s/seed%d", a.Name(), seed), a, net)
		}
	}
	replayed, recomputed := 0, 0
	for name, net := range spRandomCorpus(t) {
		ext := extendAndCompare(t, "Integrated/"+name, Integrated{}, net)
		replayed += ext.Stats.ReplayedUnits
		recomputed += ext.Stats.RecomputedUnits
	}
	if replayed == 0 || recomputed == 0 {
		t.Errorf("static-priority extensions replayed %d units and recomputed %d, want both", replayed, recomputed)
	}
}

// TestExtendMatchesFullWhenPartitionShifts forces the integrated partition
// to change shape when the candidate arrives: without the candidate there
// is no through traffic between s1 and s2, so the partition is
// [s0,s1][s2][s3,s4...]; the candidate's route s1->s2 welds a chain there
// and shifts every later chain boundary. Replay must notice via the
// partition diff, not just via shared servers.
func TestExtendMatchesFullWhenPartitionShifts(t *testing.T) {
	const n = 6
	servers := make([]server.Server, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	conn := func(name string, path ...int) topo.Connection {
		return topo.Connection{
			Name:       name,
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.05},
			AccessRate: 1,
			Path:       path,
			Deadline:   100,
		}
	}
	net := &topo.Network{
		Servers: servers,
		Connections: []topo.Connection{
			conn("ab", 0, 1),
			conn("cd", 2, 3),
			conn("ef", 4, 5),
			conn("tail", 3, 4, 5),
			conn("weld", 1, 2, 3), // the candidate: bridges s1->s2
		},
	}
	ext := extendAndCompare(t, "partition-shift", Integrated{}, net)
	if ext.Stats.RecomputedUnits == 0 {
		t.Fatal("partition shift must recompute units")
	}
}

// TestExtendReplaysUntouchedUnits checks the point of the exercise: a
// candidate at the tail of a long tandem leaves upstream units replayed.
func TestExtendReplaysUntouchedUnits(t *testing.T) {
	const n = 8
	servers := make([]server.Server, n)
	for i := range servers {
		servers[i] = server.Server{Name: fmt.Sprintf("s%d", i), Capacity: 1, Discipline: server.FIFO}
	}
	var conns []topo.Connection
	for i := 0; i+1 < n; i++ {
		conns = append(conns, topo.Connection{
			Name:       fmt.Sprintf("c%d", i),
			Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.02},
			AccessRate: 1,
			Path:       []int{i, i + 1},
			Deadline:   100,
		})
	}
	// Candidate crosses only the last pair.
	conns = append(conns, topo.Connection{
		Name:       "cand",
		Bucket:     traffic.TokenBucket{Sigma: 1, Rho: 0.02},
		AccessRate: 1,
		Path:       []int{n - 2, n - 1},
		Deadline:   100,
	})
	net := &topo.Network{Servers: servers, Connections: conns}
	for _, a := range []Analyzer{Decomposed{}, Integrated{}} {
		ext := extendAndCompare(t, "tail/"+a.Name(), a, net)
		if ext.Stats.ReplayedUnits == 0 {
			t.Errorf("%s: tail candidate should replay upstream units, stats %+v", a.Name(), ext.Stats)
		}
		if ext.Stats.Affected >= len(conns)-1 {
			t.Errorf("%s: tail candidate affected everything: %+v", a.Name(), ext.Stats)
		}
	}
}

// TestPromoteChains checks that committing an extension yields a baseline
// whose further extensions still match the full analysis.
func TestPromoteChains(t *testing.T) {
	net, err := topo.RandomFeedforward(5, 10, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 100
	}
	for _, a := range []Analyzer{Decomposed{}, Integrated{}} {
		bl, err := a.NewBaseline(&topo.Network{Servers: net.Servers, Connections: net.Connections[:4]})
		if err != nil {
			t.Fatal(err)
		}
		for k := 4; k < len(net.Connections); k++ {
			ext, err := bl.ExtendContext(context.Background(), net.Connections[k])
			if err != nil {
				t.Fatal(err)
			}
			grown := &topo.Network{Servers: net.Servers, Connections: net.Connections[:k+1]}
			full, err := a.Analyze(grown)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%s/promote%d", a.Name(), k), full, ext.Result())
			requireStagesOfFull(t, fmt.Sprintf("%s/promote%d", a.Name(), k), a, grown, ext.Promote())
			bl = ext.Promote()
		}
	}
}

func TestExtendUnstableTrial(t *testing.T) {
	net, err := topo.RandomFeedforward(4, 4, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Integrated{}.NewBaseline(net)
	if err != nil {
		t.Fatal(err)
	}
	hog := topo.Connection{
		Name:   "hog",
		Bucket: traffic.TokenBucket{Sigma: 1, Rho: net.Servers[0].Capacity},
		Path:   []int{0},
	}
	ext, err := bl.ExtendContext(context.Background(), hog)
	if err != nil {
		t.Fatal(err)
	}
	trial := &topo.Network{
		Servers:     net.Servers,
		Connections: append(append([]topo.Connection(nil), net.Connections...), hog),
	}
	full, err := Integrated{}.Analyze(trial)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "unstable", full, ext.Result())
	requireStagesOfFull(t, "unstable", Integrated{}, trial, ext.Promote())
}

// TestStagesOfDegradedRuns pins which degraded runs still break their
// bounds into stages. A finish that needs the run's traces (ServiceCurve's)
// cannot bound a degraded run, so Decomposed, Integrated and ServiceCurve
// have no stage on an unstable network, nor Decomposed on an unbounded one;
// the guaranteed-rate network curve reads no trace, and charges every
// route one stage of its bound either way.
func TestStagesOfDegradedRuns(t *testing.T) {
	unstable, err := topo.PaperTandem(4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	unstable.Connections[0].Bucket.Rho = 0.9
	gr, err := disciplineTandem(6, server.GuaranteedRate)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := copyNetwork(gr)
	unbounded.Connections[0].Rate = 0.15 // below its rate of 0.2
	baseline := func(label string, a Analyzer, net *topo.Network) *Baseline {
		t.Helper()
		b, err := a.NewBaseline(net)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !b.unstable {
			t.Fatalf("%s: the run did not degrade", label)
		}
		return b
	}
	for label, tc := range map[string]struct {
		a   Analyzer
		net *topo.Network
	}{
		"Decomposed/unstable":   {Decomposed{}, unstable},
		"Integrated/unstable":   {Integrated{}, unstable},
		"ServiceCurve/unstable": {ServiceCurve{}, unstable},
		"Decomposed/unbounded":  {Decomposed{}, unbounded},
	} {
		stages := baseline(label, tc.a, tc.net).Stages()
		if len(stages) != len(tc.net.Connections) {
			t.Fatalf("%s: %d stage lists for %d connections", label, len(stages), len(tc.net.Connections))
		}
		for c, list := range stages {
			if len(list) != 0 {
				t.Errorf("%s: conn %d has stages %v", label, c, list)
			}
		}
	}
	for label, net := range map[string]*topo.Network{"unstable": unstable, "unbounded": unbounded} {
		b := baseline("GuaranteedRate/"+label, GuaranteedRateNetworkCurve{}, net)
		res, stages := b.Result(), b.Stages()
		for c, conn := range net.Connections {
			if len(stages[c]) != 1 || !slices.Equal(stages[c][0].Servers, conn.Path) || stages[c][0].Delay != res.Bounds[c] {
				t.Errorf("GuaranteedRate/%s: conn %d stages %v, want one over %v of %v", label, c, stages[c], conn.Path, res.Bounds[c])
			}
		}
	}
}

// TestConcurrentExtendsShareBaseline runs many trials against one Baseline
// at once — extensions that replay its traces and start from its cached
// source envelopes, graph rows and index rows, and releases beside them —
// and checks each against the full analysis. Under -race it is the proof
// that a trial only ever copies the shared state it changes.
func TestConcurrentExtendsShareBaseline(t *testing.T) {
	fifo, err := topo.RandomFeedforward(8, 24, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	sp := spRandomCorpus(t)["spff12x30-seed11"]
	for _, tc := range []struct {
		a   Analyzer
		net *topo.Network
	}{{Decomposed{}, fifo}, {Integrated{}, fifo}, {Integrated{}, sp}} {
		a, net := tc.a, tc.net
		bl, err := a.NewBaseline(net)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cand := net.Connections[w]
				cand.Name = fmt.Sprintf("again%d", w)
				trial := &topo.Network{Servers: net.Servers, Connections: append(append([]topo.Connection(nil), net.Connections...), cand)}
				ext, err := bl.ExtendContext(context.Background(), cand)
				if w%2 == 1 {
					trial = &topo.Network{Servers: net.Servers, Connections: removeAt(net.Connections, w)}
					ext, err = bl.ShrinkContext(context.Background(), w)
				}
				if err != nil {
					t.Error(err)
					return
				}
				full, err := a.Analyze(trial)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range full.Bounds {
					if full.Bounds[i] != ext.Result().Bounds[i] {
						t.Errorf("%s/worker %d: bound %d: full %v, concurrent trial %v", a.Name(), w, i, full.Bounds[i], ext.Result().Bounds[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
