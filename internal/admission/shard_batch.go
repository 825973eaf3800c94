// The sharded write path: an envelope is planned into per-shard
// sub-batches, each committed as one snapshot by its shard's applyBatch
// (batch.go).
//
// One path serves every envelope, in three steps:
//
//   - plan walks the envelope against the router: an admit claims its
//     shard (router.claim pins the route, so a concurrent envelope cannot
//     hand the same servers to another shard), a release resolves its
//     shard by name, and each joins that shard's sub-batch. Nothing is
//     applied to the router beyond the claims: a release keeps its record
//     and its servers until it has committed, and holds its name against
//     admits until it reconciles.
//   - run executes the planned sub-batches in shard order, one sub-batch
//     and at most one commit per shard, and stops at the first
//     error (a cancellation; that shard committed nothing).
//   - reconcile always follows, whatever run did: in envelope order an
//     admitted claim becomes a routing record, every other claim is handed
//     back, a committed release drops its record. It is the only place the
//     router learns what a sub-batch did.
//
// Three operations cannot be planned beside their predecessors, because
// where they go depends on how those turn out: an admit whose route spans
// shards, an admit reusing the name of an earlier admit of the envelope,
// and an admit of a name an earlier release of the envelope frees. They are
// barriers. Planning starts under the shared lock, where disjoint
// envelopes pipeline fully in parallel; the first barrier hands the claims
// back and the envelope is planned again under the exclusive lock. There a
// barrier runs and reconciles the window planned so far, so the router is
// exact rather than predicted, and claims the operation again: a duplicate
// is rejected, a route that still spans shards goes to admitCross (one
// epoch-stamped commit per involved shard), anything else opens the next
// window.
//
// A cut-off envelope therefore leaves whole sub-batches only, every one of
// them known to the router, and no server loaded from two shards: the
// sub-batches of one window touch disjoint components, so the ones that
// ran commute with the ones that did not, and the state is one the
// sequential path could have reached.
//
// Decision equivalence: per-operation Admitted/Code/Reason and release
// outcomes are identical to issuing the operations as envelopes of one.
// The one documented divergence is routing, not deciding: shard placement
// of a later operation may differ from strict sequential order when an
// earlier admit of the same window is rejected (the router claims
// optimistically), which can only relocate an independent component — the
// per-connection bounds and decisions are unaffected.
package admission

import (
	"context"
	"fmt"

	"delaycalc/internal/topo"
)

func dupResult(name string) OpResult {
	return OpResult{
		Decision: Decision{Code: CodeInvalidSpec, Reason: fmt.Sprintf("connection %q already admitted", name)},
		Err:      fmt.Errorf("admission: connection %q already admitted", name),
	}
}

// ApplyBatch evaluates a mixed admit/release envelope with one snapshot
// commit per shard per window (one window unless the envelope holds a
// barrier, see the file comment). It is the engine's only write entry
// point. Every operation sees the set as left by its predecessors in the
// envelope (greedy semantics); each shard's sub-batch analyzes outside any
// lock and retries whole when a concurrent commit beats it (batch.go).
//
// A soft budget on ctx (analysis.WithBudget) that runs out cancels nothing:
// ctx reaches every sub-batch and cross-shard commit, so the rest of the
// envelope completes on sound, looser bounds and commits as usual. Two
// rules keep what it leaves behind exact. A result computed after the budget
// degraded never seeds a baseline: the next incremental test rebuilds it.
// An expired budget never starts a baseline build, which could not be cut
// short: with none at hand the admit is one full analysis under ctx.
//
// A cancellation (check IsCanceled) never tears a shard (each shard's
// sub-batch is atomic), but in a multi-shard envelope sub-batches of other
// shards may already have committed when the error surfaces; the returned
// BatchResult then carries no Results but counts them in Commits, and only
// an envelope that reports zero may be re-run.
func (se *ShardedEngine) ApplyBatch(ctx context.Context, ops []Op) (*BatchResult, error) {
	if err := validateOps(ops); err != nil {
		return nil, err
	}
	env := &envelope{se: se, ctx: ctx, ops: ops}
	se.mu.RLock()
	done, err := env.apply(false)
	se.mu.RUnlock()
	if !done {
		se.mu.Lock()
		_, err = env.apply(true)
		se.mu.Unlock()
	}
	for _, committed := range env.touched {
		if committed {
			env.br.ShardsTouched++
		}
	}
	if err != nil {
		env.br.Results = nil
		return env.br, err
	}
	for _, shard := range env.released {
		if se.wantRebalance(shard) {
			se.rebalance(shard)
		}
	}
	return env.br, nil
}

// envelope is one ApplyBatch call on its way through plan, run and
// reconcile.
type envelope struct {
	se  *ShardedEngine
	ctx context.Context
	ops []Op

	br       *BatchResult
	touched  []bool // shard -> committed at least once
	released []int  // shard of every committed release, for the rebalance check

	// The current window: the operations planned since the last run, in
	// envelope order, and the shard of the latest one on each name.
	window []plannedOp
	names  map[string]int
}

// plannedOp is one operation of the window, bound to a shard's sub-batch.
type plannedOp struct {
	idx, shard int
	claimed    bool // holding a router claim: an admit's, or a release's on its name
}

// add plans operation idx, which acts on name, into the shard's sub-batch.
func (e *envelope) add(idx, shard int, claimed bool, name string) {
	e.window = append(e.window, plannedOp{idx: idx, shard: shard, claimed: claimed})
	e.names[name] = shard
}

// apply is the planner: it walks the envelope, binding each operation to a
// shard's sub-batch, and runs the last window. The caller holds se.mu,
// exclusively or shared as told. Under the shared lock the first barrier
// hands every claim back and reports done=false with nothing run; under the
// exclusive lock the envelope always completes or fails.
func (e *envelope) apply(exclusive bool) (done bool, err error) {
	se, r := e.se, &e.se.router
	e.br = &BatchResult{Results: make([]OpResult, len(e.ops))}
	e.touched = make([]bool, len(se.shards))
	e.names = make(map[string]int)
	for i, op := range e.ops {
		switch op.Kind {
		case OpRelease:
			// A name the window already holds stays on that sub-batch, with
			// the shard's exact semantics (a rejected admit makes the release
			// report not-found); an unknown name is left not-found.
			shard, ok := e.names[op.Name]
			claimed := false
			if !ok {
				shard, ok = r.claimRelease(op.Name)
				claimed = ok
			}
			if ok {
				e.add(i, shard, claimed, op.Name)
			}
		case OpAdmit:
			cand := op.Candidate
			if !se.validRoute(cand) {
				// Never touches the router; shard 0 gives the canonical
				// rejection and cannot mutate.
				e.window = append(e.window, plannedOp{idx: i})
				continue
			}
			shard, owners, dup := r.claim(cand)
			if _, mine := e.names[cand.Name]; len(owners) > 1 || dup && mine {
				// Barrier: the route, or whether the name is free, depends on
				// how the window turns out.
				if !exclusive {
					e.reconcile()
					return false, nil
				}
				if err := e.run(); err != nil {
					return true, err
				}
				shard, owners, dup = r.claim(cand)
			}
			switch {
			case dup:
				e.br.Results[i] = dupResult(cand.Name)
			case len(owners) > 1:
				d, err := se.admitCross(e.ctx, cand, owners)
				if IsCanceled(err) {
					return true, err
				}
				e.br.Results[i] = OpResult{Decision: d, Err: err}
				if d.Admitted {
					e.br.Commits++
					for _, o := range owners {
						e.touched[o] = true
					}
				}
			default:
				e.add(i, shard, true, cand.Name)
			}
		}
	}
	return true, e.run()
}

// run executes the window's sub-batches in shard order, one sub-batch (at
// most one commit) per shard, stopping at the first error,
// and always reconciles what ran.
func (e *envelope) run() error {
	if len(e.window) == 0 {
		return nil
	}
	defer e.reconcile()
	subs := make([][]Op, len(e.se.shards))
	for _, p := range e.window {
		subs[p.shard] = append(subs[p.shard], e.ops[p.idx])
	}
	for shard, ops := range subs {
		if len(ops) == 0 {
			continue
		}
		results, committed, err := e.se.shards[shard].applyBatch(e.ctx, ops)
		if err != nil {
			return err
		}
		if committed {
			e.br.Commits++
			e.touched[shard] = true
		}
		k := 0
		for _, p := range e.window {
			if p.shard == shard {
				e.br.Results[p.idx] = results[k]
				k++
			}
		}
	}
	return nil
}

// reconcile replays the window's outcomes onto the router in envelope
// order, so commit stamps follow the envelope rather than the shard order
// the sub-batches ran in, and closes the window. An operation whose
// sub-batch never ran has the zero result, so its claim is handed back.
func (e *envelope) reconcile() {
	r := &e.se.router
	for _, p := range e.window {
		op, res := e.ops[p.idx], e.br.Results[p.idx]
		switch {
		case op.Kind == OpRelease:
			r.release(op.Name, p.claimed, res.Released)
			if res.Released {
				e.released = append(e.released, p.shard)
			}
		case p.claimed && res.Decision.Admitted:
			r.confirm(op.Candidate, p.shard)
		case p.claimed:
			r.unclaim(op.Candidate, p.shard)
		}
	}
	e.window = e.window[:0]
	clear(e.names)
}

// TestBatch is the dry-run envelope evaluation: every shard's snapshot is
// pinned once up front, so all candidates — including cross-shard ones,
// whose union is assembled from the same pinned snapshots — are judged
// against one consistent global state even while concurrent admissions
// commit. Nothing is ever committed and the router is never mutated.
func (se *ShardedEngine) TestBatch(ctx context.Context, cands []topo.Connection) ([]OpResult, error) {
	se.mu.RLock()
	defer se.mu.RUnlock()
	snaps := se.snapshots()
	out := make([]OpResult, len(cands))
	for i, cand := range cands {
		var owners []int
		shard := 0
		if se.validRoute(cand) {
			se.router.mu.Lock()
			shard, owners = se.router.route(cand.Path)
			se.router.mu.Unlock()
		}
		var d Decision
		var err error
		if len(owners) <= 1 {
			d, err = snaps[shard].test(ctx, cand)
		} else {
			d, err = se.unionTest(ctx, owners, unionConns(se.gatherUnion(owners, snaps)), cand)
		}
		if IsCanceled(err) {
			return nil, err
		}
		out[i] = OpResult{Decision: d, Err: err}
	}
	return out, nil
}
