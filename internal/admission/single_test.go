package admission

import (
	"context"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// bg is the context of every test call that exercises no cancellation.
var bg = context.Background()

// Envelope-of-one conveniences and accessors on Engine for the in-package
// tests, mirroring the exported ones on ShardedEngine, which serves every
// caller outside the package.

func (e *Engine) Admit(ctx context.Context, cand topo.Connection) (Decision, error) {
	br, err := e.ApplyBatch(ctx, []Op{{Kind: OpAdmit, Candidate: cand}})
	if err != nil {
		return Decision{}, err
	}
	return br.Results[0].Decision, br.Results[0].Err
}

func (e *Engine) Release(ctx context.Context, name string) (ReleaseInfo, bool, error) {
	br, err := e.ApplyBatch(ctx, []Op{{Kind: OpRelease, Name: name}})
	if err != nil {
		return ReleaseInfo{}, false, err
	}
	return br.Results[0].Release, br.Results[0].Released, nil
}

func (e *Engine) Test(ctx context.Context, cand topo.Connection) (Decision, error) {
	res, err := e.TestBatch(ctx, []topo.Connection{cand})
	if err != nil {
		return Decision{}, err
	}
	return res[0].Decision, res[0].Err
}

// TestBatch dry-runs every candidate against ONE pinned snapshot, as each
// shard of ShardedEngine.TestBatch does. Nothing is ever committed.
func (e *Engine) TestBatch(ctx context.Context, cands []topo.Connection) ([]OpResult, error) {
	snap := e.Snapshot()
	out := make([]OpResult, len(cands))
	for i, cand := range cands {
		d, err := snap.test(ctx, cand)
		if IsCanceled(err) {
			return nil, err
		}
		out[i] = OpResult{Decision: d, Err: err}
	}
	return out, nil
}

func (e *Engine) Count() int { return e.Snapshot().Count() }

func (e *Engine) Analyzer() analysis.Analyzer { return e.analyzer }

func (e *Engine) Servers() []server.Server { return append([]server.Server(nil), e.servers...) }

func (se *ShardedEngine) Servers() []server.Server { return se.shards[0].Servers() }
