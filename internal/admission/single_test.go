package admission

import (
	"context"

	"delaycalc/internal/topo"
)

// bg is the context of every test call that exercises no cancellation.
var bg = context.Background()

// Envelope-of-one conveniences on Engine for the in-package tests, mirroring
// the exported ones on ShardedEngine.

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
