// The sharded write path: an envelope is grouped into per-shard
// sub-batches, each committed as one snapshot by Engine.ApplyBatch, so the
// single-commit invariant holds per shard touched.
//
// Two execution paths make up the sharding protocol:
//
//   - The shard-local fast path (shared lock) serves envelopes whose
//     operations all route to single shards: admits are claimed up front,
//     releases resolve through the router, and each involved shard runs
//     exactly one sub-batch. Disjoint envelopes pipeline fully in
//     parallel.
//   - The global path (exclusive lock) serves everything else — an admit
//     spanning shards, or in-envelope name reuse that needs the strict
//     sequential resolution. Shard-local runs of operations are buffered
//     into per-shard segments and flushed (one engine sub-batch = one
//     commit per shard) before each cross-shard admit, which then merges
//     the involved components with one epoch-stamped commit per shard.
//
// Decision equivalence: per-operation Admitted/Code/Reason and release
// outcomes are identical to issuing the operations as envelopes of one.
// The one documented divergence is routing, not deciding: shard placement
// of a later operation may differ from strict sequential order when an
// earlier admit of the same envelope is rejected (the router claims
// optimistically), which can only relocate an independent component — the
// per-connection bounds and decisions are unaffected.
package admission

import (
	"context"
	"fmt"
	"sort"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// batchSeg is one shard's buffered slice of an envelope.
type batchSeg struct {
	ops  []Op
	idxs []int // envelope index of each op
}

func addSeg(segs map[int]*batchSeg, shard, idx int, op Op) {
	seg := segs[shard]
	if seg == nil {
		seg = &batchSeg{}
		segs[shard] = seg
	}
	seg.ops = append(seg.ops, op)
	seg.idxs = append(seg.idxs, idx)
}

func sortedShards(segs map[int]*batchSeg) []int {
	out := make([]int, 0, len(segs))
	for s := range segs {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func dupResult(name string) OpResult {
	return OpResult{
		Decision: Decision{Code: CodeInvalidSpec, Reason: fmt.Sprintf("connection %q already admitted", name)},
		Err:      fmt.Errorf("admission: connection %q already admitted", name),
	}
}

// ApplyBatch evaluates a mixed admit/release envelope with one snapshot
// commit per shard touched; see Engine.ApplyBatch for the single-engine
// contract and the analyzer override, which is threaded through every
// sub-batch and cross-shard commit. Cancellation never tears a shard (each
// shard's sub-batch is atomic), but in a multi-shard envelope sub-batches
// of other shards may already have committed when the error surfaces; the
// returned BatchResult then carries no Results but counts them in Commits,
// and only an envelope that reports zero may be re-run.
func (se *ShardedEngine) ApplyBatch(ctx context.Context, ops []Op, override analysis.Analyzer) (*BatchResult, error) {
	if eng := se.single(); eng != nil {
		return eng.ApplyBatch(ctx, ops, override)
	}
	if err := validateOps(ops); err != nil {
		return nil, err
	}
	se.mu.RLock()
	br, released, ok, err := se.applyBatchLocal(ctx, ops, override)
	se.mu.RUnlock()
	if !ok {
		br, released, err = se.applyBatchGlobal(ctx, ops, override)
	}
	if err != nil {
		br.Results = nil
		return br, err
	}
	for _, shard := range released {
		if se.wantRebalance(shard) {
			se.rebalance(shard)
		}
	}
	return br, nil
}

// applyBatchLocal is the shared-lock path. ok=false means the envelope
// needs the global path (cross-shard admit or in-envelope name reuse);
// all router claims are rolled back before returning in that case.
// Caller holds se.mu shared.
func (se *ShardedEngine) applyBatchLocal(ctx context.Context, ops []Op, override analysis.Analyzer) (br *BatchResult, released []int, ok bool, err error) {
	br = &BatchResult{Results: make([]OpResult, len(ops))}
	segs := make(map[int]*batchSeg)
	envAdmit := make(map[string]int) // in-envelope admit name -> shard
	envReleased := make(map[string]bool)
	var claimed []topo.Connection

	bail := func() {
		for _, c := range claimed {
			se.router.unclaim(c)
		}
	}

	for i, op := range ops {
		switch op.Kind {
		case OpRelease:
			if shard, inEnv := envAdmit[op.Name]; inEnv {
				// Releasing a connection admitted earlier in this envelope:
				// same shard, same sub-batch, engine-exact semantics (a
				// rejected admit makes the release report not-found).
				addSeg(segs, shard, i, op)
				envReleased[op.Name] = true
				continue
			}
			se.router.mu.Lock()
			rc := se.router.conns[op.Name]
			se.router.mu.Unlock()
			if rc == nil {
				br.Results[i] = OpResult{}
				continue
			}
			addSeg(segs, rc.shard, i, op)
			envReleased[op.Name] = true
		case OpAdmit:
			cand := op.Candidate
			if !se.validRoute(cand) {
				// Never touches the router; shard 0 reproduces Engine's
				// canonical rejection and cannot mutate.
				addSeg(segs, 0, i, op)
				continue
			}
			if _, reused := envAdmit[cand.Name]; reused {
				bail()
				return nil, nil, false, nil
			}
			shard, cross, dup := se.router.claim(cand)
			if dup {
				if envReleased[cand.Name] {
					// An earlier op of this envelope releases the name, so
					// sequentially this admit would be tested fresh; only
					// the strict global path can order that correctly.
					bail()
					return nil, nil, false, nil
				}
				br.Results[i] = dupResult(cand.Name)
				continue
			}
			if cross {
				bail()
				return nil, nil, false, nil
			}
			claimed = append(claimed, cand)
			envAdmit[cand.Name] = shard
			addSeg(segs, shard, i, op)
		}
	}

	// Run one engine sub-batch per involved shard (one commit each), then
	// replay its results onto the router: confirm admitted claims, unclaim
	// the rest, drop released records.
	shards := sortedShards(segs)
	for n, shard := range shards {
		seg := segs[shard]
		res, subErr := se.shards[shard].ApplyBatch(ctx, seg.ops, override)
		if subErr != nil {
			// This shard committed nothing; earlier shards already did and
			// are reconciled. Roll back the claims of every unreconciled
			// segment and surface the error.
			for _, sh := range shards[n:] {
				for _, o := range segs[sh].ops {
					if o.Kind == OpAdmit && se.validRoute(o.Candidate) {
						se.router.unclaim(o.Candidate)
					}
				}
			}
			return br, nil, true, subErr
		}
		br.Commits += res.Commits
		if res.Commits > 0 {
			br.ShardsTouched++
		}
		for k, r := range res.Results {
			br.Results[seg.idxs[k]] = r
			o := seg.ops[k]
			switch o.Kind {
			case OpAdmit:
				if !se.validRoute(o.Candidate) {
					continue // never claimed, never admitted
				}
				if r.Decision.Admitted {
					se.router.confirm(o.Candidate, shard)
				} else {
					se.router.unclaim(o.Candidate)
				}
			case OpRelease:
				if !r.Released {
					continue
				}
				se.router.mu.Lock()
				// Re-read: a concurrent release of the same name may have
				// already dropped the record.
				if cur := se.router.conns[o.Name]; cur != nil {
					delete(se.router.conns, o.Name)
					se.router.load[cur.shard]--
					se.router.dropRefs(cur.path)
				}
				se.router.mu.Unlock()
				released = append(released, shard)
			}
		}
	}
	return br, released, true, nil
}

// applyBatchGlobal is the exclusive-lock path for envelopes with
// cross-shard admits or in-envelope name reuse. Shard-local operations are
// buffered into per-shard segments flushed (one engine sub-batch, one
// commit per shard) before every cross-shard admit; routing decisions
// between flushes come from a predicted router view that optimistically
// assumes admits succeed (see the package comment for why this never
// changes a decision).
func (se *ShardedEngine) applyBatchGlobal(ctx context.Context, ops []Op, override analysis.Analyzer) (*BatchResult, []int, error) {
	se.mu.Lock()
	defer se.mu.Unlock()

	br := &BatchResult{Results: make([]OpResult, len(ops))}
	var released []int
	touched := make(map[int]bool)
	segs := make(map[int]*batchSeg)

	// Predicted router view, re-synced from the real router after every
	// flush. Only owner/refs/load and the name->record map matter for
	// routing.
	var pOwner, pRefs, pLoad []int
	pConns := make(map[string]*routedConn)
	sync := func() {
		se.router.mu.Lock()
		pOwner = append(pOwner[:0], se.router.owner...)
		pRefs = append(pRefs[:0], se.router.refs...)
		pLoad = append(pLoad[:0], se.router.load...)
		pConns = make(map[string]*routedConn, len(se.router.conns))
		for name, rc := range se.router.conns {
			pConns[name] = &routedConn{shard: rc.shard, path: rc.path}
		}
		se.router.mu.Unlock()
	}
	sync()

	pOwnersOf := func(path []int) []int {
		var owners []int
		for _, s := range path {
			o := pOwner[s]
			if o < 0 {
				continue
			}
			dup := false
			for _, k := range owners {
				if k == o {
					dup = true
					break
				}
			}
			if !dup {
				owners = append(owners, o)
			}
		}
		sort.Ints(owners)
		return owners
	}
	pLeastLoaded := func() int {
		best := 0
		for i := 1; i < len(pLoad); i++ {
			if pLoad[i] < pLoad[best] {
				best = i
			}
		}
		return best
	}
	pAdmit := func(cand topo.Connection, shard int) {
		for _, s := range uniqueServers(nil, cand.Path, len(pOwner)) {
			if pOwner[s] < 0 {
				pOwner[s] = shard
			}
			pRefs[s]++
		}
		pConns[cand.Name] = &routedConn{shard: shard, path: cand.Path}
		pLoad[shard]++
	}
	pRelease := func(rc *routedConn, name string) {
		delete(pConns, name)
		pLoad[rc.shard]--
		for _, s := range uniqueServers(nil, rc.path, len(pOwner)) {
			pRefs[s]--
			if pRefs[s] == 0 {
				pOwner[s] = -1
			}
		}
	}

	// flush runs every buffered segment (one commit per shard) and then
	// replays the outcomes onto the real router in envelope order — the
	// order matters when an envelope releases and re-admits one name
	// across different shards.
	flush := func() error {
		type recon struct {
			idx   int
			op    Op
			r     OpResult
			shard int
		}
		var replay []recon
		for _, shard := range sortedShards(segs) {
			seg := segs[shard]
			res, err := se.shards[shard].ApplyBatch(ctx, seg.ops, override)
			if err != nil {
				return err
			}
			br.Commits += res.Commits
			if res.Commits > 0 {
				touched[shard] = true
			}
			for k, r := range res.Results {
				br.Results[seg.idxs[k]] = r
				replay = append(replay, recon{idx: seg.idxs[k], op: seg.ops[k], r: r, shard: shard})
			}
		}
		sort.Slice(replay, func(i, j int) bool { return replay[i].idx < replay[j].idx })
		for _, rec := range replay {
			switch rec.op.Kind {
			case OpAdmit:
				if rec.r.Decision.Admitted {
					se.router.commitAdmit(rec.op.Candidate, rec.shard)
				}
			case OpRelease:
				if rec.r.Released {
					if shard, ok := se.router.commitRelease(rec.op.Name); ok {
						released = append(released, shard)
					}
				}
			}
		}
		segs = make(map[int]*batchSeg)
		return nil
	}

	// fail surfaces a cancellation with the commit count so far.
	fail := func(err error) (*BatchResult, []int, error) {
		br.ShardsTouched = len(touched)
		return br, released, err
	}

	for i, op := range ops {
		switch op.Kind {
		case OpRelease:
			rc := pConns[op.Name]
			if rc == nil {
				br.Results[i] = OpResult{}
				continue
			}
			addSeg(segs, rc.shard, i, op)
			pRelease(rc, op.Name)
		case OpAdmit:
			cand := op.Candidate
			if !se.validRoute(cand) {
				addSeg(segs, 0, i, op)
				continue
			}
			if pConns[cand.Name] != nil {
				// The prediction may be optimistic (an earlier in-envelope
				// admit that will actually be rejected); resolve against
				// the real router before declaring a duplicate.
				if err := flush(); err != nil {
					return fail(err)
				}
				sync()
				if pConns[cand.Name] != nil {
					br.Results[i] = dupResult(cand.Name)
					continue
				}
			}
			owners := pOwnersOf(cand.Path)
			if len(owners) > 1 {
				// Predicted cross-shard admit: flush so the router reflects
				// every earlier operation and re-route against the real
				// owners (the spanning components may have been released, or
				// a predicted admit rejected, in which case this is a plain
				// shard-local op after all).
				if err := flush(); err != nil {
					return fail(err)
				}
				sync()
				owners = pOwnersOf(cand.Path)
			}
			if len(owners) > 1 {
				d, err := se.admitCross(ctx, cand, owners, override)
				if IsCanceled(err) {
					return fail(err)
				}
				br.Results[i] = OpResult{Decision: d, Err: err}
				if d.Admitted {
					br.Commits++
					for _, o := range owners {
						touched[o] = true
					}
				}
				sync()
				continue
			}
			shard := pLeastLoaded()
			if len(owners) == 1 {
				shard = owners[0]
			}
			addSeg(segs, shard, i, op)
			pAdmit(cand, shard)
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	br.ShardsTouched = len(touched)
	return br, released, nil
}

// commitAdmit records an admitted connection that was never claimed (the
// exclusive-lock batch path): pin its route's servers to the shard and
// install the routing record with the next commit stamp.
func (r *shardRouter) commitAdmit(cand topo.Connection, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range uniqueServers(nil, cand.Path, len(r.owner)) {
		if r.owner[s] < 0 {
			r.owner[s] = shard
		}
		r.refs[s]++
	}
	r.conns[cand.Name] = &routedConn{shard: shard, seq: r.seq, path: cand.Path}
	r.seq++
	r.load[shard]++
}

// commitRelease drops a released connection's routing record, reporting
// the shard it lived on.
func (r *shardRouter) commitRelease(name string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rc := r.conns[name]
	if rc == nil {
		return 0, false
	}
	delete(r.conns, name)
	r.load[rc.shard]--
	r.dropRefs(rc.path)
	return rc.shard, true
}

// TestBatch is the dry-run envelope evaluation: every shard's snapshot is
// pinned once up front, so all candidates — including cross-shard ones,
// whose union is assembled from the same pinned snapshots — are judged
// against one consistent global state even while concurrent admissions
// commit. Nothing is ever committed and the router is never mutated.
// override nil selects each shard's incremental path, non-nil forces a
// full analysis with it (see Engine.ApplyBatch).
func (se *ShardedEngine) TestBatch(ctx context.Context, cands []topo.Connection, override analysis.Analyzer) ([]OpResult, error) {
	if eng := se.single(); eng != nil {
		return eng.TestBatch(ctx, cands, override)
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	snaps := se.pin()
	out := make([]OpResult, len(cands))
	for i, cand := range cands {
		var owners []int
		shard := 0
		if se.validRoute(cand) {
			se.router.mu.Lock()
			owners = se.router.ownersOf(cand.Path)
			shard = se.router.leastLoaded()
			se.router.mu.Unlock()
			if len(owners) == 1 {
				shard = owners[0]
			}
		}
		var d Decision
		var err error
		if len(owners) <= 1 {
			d, err = snaps[shard].test(ctx, cand, override)
		} else {
			d, err = se.unionTest(ctx, owners, unionConns(se.gatherUnion(owners, snaps)), cand, override)
		}
		if IsCanceled(err) {
			return nil, err
		}
		out[i] = OpResult{Decision: d, Err: err}
	}
	return out, nil
}
