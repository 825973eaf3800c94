// The write path: every admit, release and test is an envelope.
//
// ShardedEngine.ApplyBatch (shard_batch.go) plans an envelope into per-shard
// sub-batches; a shard's applyBatch evaluates its sub-batch against a
// private working state — precheck, affected-set scoping, unit-trace
// extension or shrink, decision — and installs all its mutations with ONE
// version-checked snapshot swap at the end. A pinned snapshot's test runs
// the same per-candidate step and commits nothing. A single admit, release
// or test is an envelope of one. A 50-op envelope pays one commit per shard
// instead of 50, and concurrent traffic can never observe (or interleave
// with) a half-applied sub-batch: readers see a shard's set either entirely
// before or entirely after it. Decisions are bit-identical to issuing the
// operations as N envelopes of one against an otherwise idle engine, and to
// Controller's full re-analysis; the differential tests pin both over
// random networks and the churn corpus.
package admission

import (
	"context"
	"fmt"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// OpKind selects what a batch operation does.
type OpKind uint8

const (
	// OpAdmit tests Op.Candidate and, when it passes, adds it to the set.
	OpAdmit OpKind = iota + 1
	// OpRelease removes the admitted connection named Op.Name.
	OpRelease
)

// Op is one operation of a batch envelope.
type Op struct {
	Kind      OpKind
	Candidate topo.Connection // OpAdmit only
	Name      string          // OpRelease only
}

// OpResult is the per-operation outcome of an envelope: admit ops (and
// dry-run candidates) carry the Decision (and Err for invalid candidates),
// release ops carry Released plus the ReleaseInfo report.
type OpResult struct {
	// Decision is the admission decision (OpAdmit only).
	Decision Decision
	// Err is the per-operation error of an invalid candidate; it never
	// aborts the rest of the envelope.
	Err error
	// Released reports whether an OpRelease found (and removed) its name.
	Released bool
	// Release describes how the release was absorbed (OpRelease only).
	Release ReleaseInfo
}

// ReleaseInfo describes how a release was performed.
type ReleaseInfo struct {
	// Incremental is true when the baseline was shrunk in place (scoped
	// unit-trace replay), false when the release dropped it and the next
	// incremental test rebuilds it.
	Incremental bool
	// Affected is the number of surviving connections inside the removed
	// connection's interference closure (-1 when the release did not
	// shrink, so nothing was scoped).
	Affected int
}

// BatchResult is the outcome of one envelope.
type BatchResult struct {
	// Results holds one entry per operation, in request order; nil when the
	// envelope was cancelled.
	Results []OpResult
	// Commits is the number of snapshot commits the envelope performed:
	// 0 when no operation mutated the set, otherwise one per shard touched
	// per window — one window unless the envelope holds a barrier
	// (shard_batch.go), which commits the window before it and, when it
	// merges shards, once more itself. It is reported even when ApplyBatch
	// returns a cancellation error: zero then means nothing was committed
	// anywhere and the envelope may be re-run.
	Commits int
	// ShardsTouched is the number of engine shards that committed (at most
	// 1 on a one-shard engine, 0 when nothing mutated).
	ShardsTouched int
}

// batchState is the working state one envelope evaluation accumulates: the
// would-be admitted set and the baseline as the operations applied so far
// have left them. A dry run evaluates against the same state and never
// advances it.
type batchState struct {
	// admitted starts as the snapshot's set and is never written or
	// appended to in place: an operation installs another list. With a
	// working baseline it holds the same connections as base.Conns(), and an
	// accepted incremental admit or release installs exactly that list, so
	// the working state, the snapshot it commits and the baseline share one
	// copy of the set.
	admitted []topo.Connection
	base     *analysis.Baseline
	// mutated flips on the first successful admit or release; an envelope
	// that never mutates commits nothing.
	mutated bool
	// buildFailed mirrors the snapshot's sticky baseErr: once a lazy
	// baseline build fails, later operations against the *same* would-be
	// set go straight to the full path. Any mutation starts a fresh would-be
	// set, so the flag resets.
	buildFailed bool
}

// workingState opens a sub-batch evaluation over the snapshot.
func (s *snapshot) workingState() *batchState {
	return &batchState{admitted: s.admitted, base: s.cachedBaseline()}
}

// validateOps rejects malformed envelopes before anything is evaluated.
func validateOps(ops []Op) error {
	for i, op := range ops {
		switch op.Kind {
		case OpAdmit, OpRelease:
		default:
			return fmt.Errorf("admission: batch operation %d has unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// applyBatch evaluates one shard's sub-batch of a validated envelope
// against the shard's current snapshot, commits all its mutations as one
// new snapshot version, and reports the per-operation results and whether
// it committed.
//
// Every operation sees the set as left by its predecessors in the sub-batch
// (greedy semantics), and the shard's version advances by at most 1. The
// evaluation analyzes outside any lock; a concurrent commit between the
// snapshot read and the commit retries the whole sub-batch. A cancellation
// (check IsCanceled) aborts it with nothing committed.
func (sh *shard) applyBatch(ctx context.Context, ops []Op) ([]OpResult, bool, error) {
	se := sh.se
	se.batchEnvs.Add(1)
	se.batchOps.Add(uint64(len(ops)))
	for {
		snap := sh.snap.Load()
		results, st, err := sh.evalBatch(ctx, snap, ops)
		if err != nil || !st.mutated {
			return results, false, err
		}
		if sh.commitBatch(snap, st) {
			return results, true, nil
		}
		se.conflicts.Add(1)
	}
}

// evalBatch runs every operation against a private working state, never
// mutating the shard. The returned batchState is what commitBatch
// installs.
func (sh *shard) evalBatch(ctx context.Context, snap *snapshot, ops []Op) ([]OpResult, *batchState, error) {
	st := snap.workingState()
	results := make([]OpResult, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpAdmit:
			d, ts, err := sh.admitStep(ctx, snap, st, op.Candidate)
			if IsCanceled(err) {
				return nil, nil, err
			}
			if err == nil && d.Admitted {
				st.admit(ts)
			}
			results[i] = OpResult{Decision: d, Err: err}
		case OpRelease:
			// Only a release that ends its run shrinks the baseline: inside
			// a run each shrink would recompute the closure just for the
			// next release to discard it.
			shrink := i+1 == len(ops) || ops[i+1].Kind != OpRelease
			res, err := sh.releaseStep(ctx, st, op.Name, shrink)
			if err != nil {
				return nil, nil, err
			}
			results[i] = res
		}
	}
	return results, st, nil
}

// ensureBaseline returns the working baseline for an incremental admit,
// building one lazily: before the first mutation it joins the snapshot's
// own lazy build (so the analysis is shared with concurrent tests), after a
// mutation it builds privately over the working set. Build failures stick
// until the next mutation.
func (st *batchState) ensureBaseline(sh *shard, snap *snapshot) (*analysis.Baseline, error) {
	if st.base != nil {
		return st.base, nil
	}
	if st.buildFailed {
		return nil, fmt.Errorf("admission: baseline build failed")
	}
	var (
		base *analysis.Baseline
		err  error
	)
	if !st.mutated {
		base, err = snap.baseline()
	} else {
		// NewBaseline takes its own copy of the list.
		se := sh.se
		base, err = se.analyzer.NewBaseline(&topo.Network{Servers: se.servers, Connections: st.admitted})
		if err == nil {
			se.epoch.Add(1)
		}
	}
	if err != nil {
		st.buildFailed = true
		return nil, err
	}
	st.base = base
	return base, nil
}

// trialSet is what an admission test leaves for an accepted candidate's
// commit: the trial's connection list (the working set, the candidate last)
// and, from an incremental test whose traces may seed a baseline, the
// extension over exactly that list.
type trialSet struct {
	conns []topo.Connection
	ext   *analysis.Extension
}

// admit advances the working state past an accepted candidate to its
// trial's list. Without an extension to promote (a full-path or degraded
// admit) the would-be set has no baseline, and the next incremental admit
// rebuilds one over it.
func (st *batchState) admit(ts trialSet) {
	st.admitted = ts.conns
	st.base = nil
	if ts.ext != nil {
		st.base = ts.ext.Promote()
	}
	st.mutated = true
	st.buildFailed = false
}

// admitStep is THE admission test — the one implementation of precheck ->
// validation -> stability -> affected set -> extend -> evaluate, run by
// applyBatch against the accumulating working state and by a dry run
// against a pinned snapshot's. It never advances st: the caller applies
// st.admit on an accepted live candidate. It returns the decision plus the
// trial's set for that commit. A cancellation surfaces as a bare error (never
// as a CodeInvalidSpec decision, and never by silently falling through to
// the more expensive full path).
//
// A nil snap (the cross-shard union test, which has none) forces one full
// analysis; so does an expired soft budget with no working baseline.
func (sh *shard) admitStep(ctx context.Context, snap *snapshot, st *batchState, cand topo.Connection) (Decision, trialSet, error) {
	se := sh.se
	if d, err := precheck(cand); err != nil {
		return d, trialSet{}, err
	}
	// st.base, when present, is the baseline over exactly st.admitted — that
	// set was validated when it was committed — so it derives the trial and
	// validates the candidate in O(candidate), and the trial's list is the
	// one copy of the set the test makes, and it decides the trial's
	// stability in O(candidate hops) from the baseline's load. A nil working
	// baseline (cold start, after a release that dropped it) builds the
	// trial here and pays the identical full validation and stability pass.
	var (
		tr     *analysis.Trial
		net    *topo.Network
		stable bool
		err    error
	)
	if st.base != nil {
		if tr, err = st.base.NewTrial(cand); err == nil {
			net, stable = tr.Network(), tr.Stable()
		}
	} else {
		net = &topo.Network{Servers: se.servers, Connections: make([]topo.Connection, 0, len(st.admitted)+1)}
		net.Connections = append(append(net.Connections, st.admitted...), cand)
		if err = net.Validate(); err == nil {
			stable = net.Stable()
		}
	}
	if err != nil {
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, trialSet{}, err
	}
	if !stable {
		return Decision{Code: CodeUnstable, Reason: "network would be unstable"}, trialSet{}, nil
	}
	if snap != nil {
		affected, _ := AffectedSet(len(se.servers), st.admitted, cand)
		se.observeAffected(len(affected))
		if tr == nil && !analysis.Expired(ctx) {
			if base, err := st.ensureBaseline(sh, snap); err == nil {
				// Validated above, so this cannot fail.
				tr, _ = base.NewTrial(cand)
			}
		}
		if tr != nil {
			ext, err := tr.Run(ctx)
			if err == nil {
				sh.incTests.Add(1)
				conns := tr.Network().Connections
				d := evaluate(conns, ext.Bounds())
				if analysis.Degraded(ctx) {
					// Its traces depend on when the budget ran out.
					ext = nil
				}
				return d, trialSet{conns: conns, ext: ext}, nil
			}
			if IsCanceled(err) {
				return Decision{}, trialSet{}, err
			}
			// Extension failure: fall through to the full path, which
			// reproduces Controller.Test exactly (including its error). So
			// does a baseline that could not be built.
		}
	}
	sh.fullTests.Add(1)
	res, err := se.analyzer.AnalyzeContext(ctx, net)
	if err != nil {
		if IsCanceled(err) {
			return Decision{}, trialSet{}, err
		}
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, trialSet{}, err
	}
	return evaluate(net.Connections, res.Bounds), trialSet{conns: net.Connections}, nil
}

// releaseStep removes the named connection from the working state — the
// one implementation of release. The only returned error is a cancellation
// from the scoped shrink replay.
//
// With shrink set and a materialized working baseline, the baseline is
// shrunk in place — the surviving unit traces outside the removed
// connection's closure replay bit-identically, so the next admission test
// extends a warm baseline exactly as if the released connection had never
// been admitted. Otherwise, or if the shrink ran into the soft budget, the
// release drops the baseline and the next incremental test rebuilds it
// (ensureBaseline), so a run of releases pays one rebuild, not a shrink each.
func (sh *shard) releaseStep(ctx context.Context, st *batchState, name string, shrink bool) (OpResult, error) {
	idx := -1
	for i, conn := range st.admitted {
		if conn.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return OpResult{}, nil
	}
	info := ReleaseInfo{Affected: -1}
	var shrunk *analysis.Baseline
	if shrink && st.base != nil {
		ext, err := st.base.ShrinkContext(ctx, idx)
		if IsCanceled(err) {
			return OpResult{}, err
		}
		if err == nil && !analysis.Degraded(ctx) {
			shrunk = ext.Promote()
			affected, _ := AffectedSet(len(sh.se.servers), shrunk.Conns(), st.admitted[idx])
			info = ReleaseInfo{Incremental: true, Affected: len(affected)}
			sh.se.observeAffected(len(affected))
		}
	}
	if shrunk != nil {
		// The shrunk baseline's list is the survivors.
		sh.incRels.Add(1)
		st.admitted = shrunk.Conns()
	} else {
		// Compaction: the one release that copies the survivors itself.
		sh.compactRels.Add(1)
		survivors := make([]topo.Connection, 0, len(st.admitted)-1)
		st.admitted = append(append(survivors, st.admitted[:idx]...), st.admitted[idx+1:]...)
	}
	st.base = shrunk
	st.mutated = true
	st.buildFailed = false
	return OpResult{Released: true, Release: info}, nil
}

// commitBatch installs the working state as the next snapshot version iff
// snap is still current — the sub-batch's single epoch-stamped commit.
func (sh *shard) commitBatch(snap *snapshot, st *batchState) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.snap.Load() != snap {
		return false
	}
	next := &snapshot{sh: sh, version: snap.version + 1, admitted: st.admitted, promoted: st.base}
	if st.base != nil {
		sh.se.epoch.Add(1)
	}
	sh.snap.Store(next)
	sh.se.batchComs.Add(1)
	return true
}

// test dry-runs one candidate against this pinned snapshot.
func (s *snapshot) test(ctx context.Context, cand topo.Connection) (Decision, error) {
	d, _, err := s.sh.admitStep(ctx, s, s.workingState(), cand)
	return d, err
}
