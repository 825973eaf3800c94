package admission

import (
	"context"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// bg is the context of every test call that exercises no cancellation.
var bg = context.Background()

// Envelope-of-one conveniences for the in-package tests: a single admit,
// release or dry run is an envelope of one through ApplyBatch or TestBatch,
// the path delayd serves.

func (se *ShardedEngine) Admit(ctx context.Context, cand topo.Connection) (Decision, error) {
	br, err := se.ApplyBatch(ctx, []Op{{Kind: OpAdmit, Candidate: cand}})
	if err != nil {
		return Decision{}, err
	}
	return br.Results[0].Decision, br.Results[0].Err
}

func (se *ShardedEngine) Release(ctx context.Context, name string) (ReleaseInfo, bool, error) {
	br, err := se.ApplyBatch(ctx, []Op{{Kind: OpRelease, Name: name}})
	if err != nil {
		return ReleaseInfo{}, false, err
	}
	return br.Results[0].Release, br.Results[0].Released, nil
}

func (se *ShardedEngine) Test(ctx context.Context, cand topo.Connection) (Decision, error) {
	res, err := se.TestBatch(ctx, []topo.Connection{cand})
	if err != nil {
		return Decision{}, err
	}
	return res[0].Decision, res[0].Err
}

func (se *ShardedEngine) Servers() []server.Server {
	return append([]server.Server(nil), se.servers...)
}

// newEngine builds an engine of the given shard count or fails the test.
func newEngine(tb testing.TB, servers []server.Server, analyzer analysis.Analyzer, shards int) *ShardedEngine {
	tb.Helper()
	se, err := NewShardedEngine(servers, analyzer, shards)
	if err != nil {
		tb.Fatal(err)
	}
	return se
}

// preload installs conns as shard 0's committed set without analyzing them,
// as one envelope admitting them all leaves a one-shard engine, less the
// baseline, which the next test builds.
func preload(se *ShardedEngine, conns []topo.Connection) {
	for _, c := range conns {
		se.router.pin(c.Path, 0)
		se.router.record(c, 0)
	}
	se.shards[0].replaceAdmitted(conns)
}

// requireSameAt asserts the engine's decision got matches the controller's
// want: in every field at one shard, where the shard's trial is the whole
// network, and in outcome and candidate bound at more (requireSameOutcome).
func requireSameAt(t *testing.T, shards int, label string, want, got Decision) {
	t.Helper()
	if shards == 1 {
		requireSameDecision(t, label, want, got)
	} else {
		requireSameOutcome(t, label, want, got)
	}
}
