// The write path: every admit, release and test is an envelope.
//
// ApplyBatch evaluates a mixed admit/release envelope against a private
// working state — precheck, affected-set scoping, unit-trace extension or
// shrink, decision — and installs all its mutations with ONE
// version-checked snapshot swap at the end; TestBatch runs the same
// per-candidate step against a pinned snapshot and commits nothing. A
// single admit, release or test is an envelope of one. A 50-op envelope
// pays one commit instead of 50, and concurrent traffic can never observe
// (or interleave with) a half-applied envelope: readers see the set either
// entirely before or entirely after it. Decisions are bit-identical to
// issuing the operations as N envelopes of one against an otherwise idle
// engine, and to Controller's full re-analysis; the differential tests pin
// both over random networks and the churn corpus.
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
	// per window — one window unless a sharded envelope holds a barrier
	// (shard_batch.go), which commits the window before it and, when it
	// merges shards, once more itself; 1 for a plain Engine. It is reported
	// even when ApplyBatch returns a cancellation error: zero then means
	// nothing was committed anywhere and the envelope may be re-run.
	Commits int
	// ShardsTouched is the number of engine shards that committed (a plain
	// Engine reports 1 when the envelope mutated, 0 otherwise).
	ShardsTouched int
}

// batchState is the working state one envelope evaluation accumulates: the
// would-be admitted set and the baseline as the operations applied so far
// have left them. A dry run evaluates against the same state and never
// advances it.
type batchState struct {
	// admitted starts as a capacity-clipped alias of the snapshot's set and
	// is never written in place: an admit appends (reallocating off the
	// snapshot's array the first time), a release installs a fresh slice.
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

// workingState opens an envelope evaluation over the snapshot.
func (s *Snapshot) workingState() *batchState {
	n := len(s.admitted)
	return &batchState{admitted: s.admitted[:n:n], base: s.cachedBaseline()}
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

// ApplyBatch evaluates a mixed admit/release envelope against the current
// snapshot and commits all its mutations as one new snapshot version. It
// is the engine's only write entry point.
//
// Every operation sees the set as left by its predecessors in the envelope
// (greedy semantics), and the engine's version advances by at most 1. The
// evaluation analyzes outside any lock; a concurrent commit between the
// snapshot read and the batch commit retries the whole envelope. A
// cancellation (check IsCanceled) aborts the envelope with nothing
// committed.
//
// A soft budget on ctx (analysis.WithBudget) that runs out cancels nothing:
// the envelope completes on sound, looser bounds and commits as usual. Two
// rules keep what it leaves behind exact. A result computed after the budget
// degraded never seeds a baseline: the next incremental test rebuilds it.
// An expired budget never starts a baseline build, which could not be cut
// short: with none at hand the admit is one full analysis under ctx.
func (e *Engine) ApplyBatch(ctx context.Context, ops []Op) (*BatchResult, error) {
	if err := validateOps(ops); err != nil {
		return nil, err
	}
	e.batchEnvs.Add(1)
	e.batchOps.Add(uint64(len(ops)))
	for {
		snap := e.Snapshot()
		br, st, err := e.evalBatch(ctx, snap, ops)
		if err != nil {
			return &BatchResult{}, err
		}
		if !st.mutated {
			return br, nil
		}
		if e.commitBatch(snap, st) {
			br.Commits = 1
			br.ShardsTouched = 1
			return br, nil
		}
		e.conflicts.Add(1)
	}
}

// evalBatch runs every operation against a private working state, never
// mutating the engine. The returned batchState is what commitBatch
// installs.
func (e *Engine) evalBatch(ctx context.Context, snap *Snapshot, ops []Op) (*BatchResult, *batchState, error) {
	st := snap.workingState()
	br := &BatchResult{Results: make([]OpResult, len(ops))}
	for i, op := range ops {
		switch op.Kind {
		case OpAdmit:
			d, ext, err := e.admitStep(ctx, snap, st, op.Candidate)
			if IsCanceled(err) {
				return nil, nil, err
			}
			if err == nil && d.Admitted {
				st.admit(op.Candidate, ext)
			}
			br.Results[i] = OpResult{Decision: d, Err: err}
		case OpRelease:
			// Only a release that ends its run shrinks the baseline: inside
			// a run each shrink would recompute the closure just for the
			// next release to discard it.
			shrink := i+1 == len(ops) || ops[i+1].Kind != OpRelease
			res, err := e.releaseStep(ctx, st, op.Name, shrink)
			if err != nil {
				return nil, nil, err
			}
			br.Results[i] = res
		}
	}
	return br, st, nil
}

// ensureBaseline returns the working baseline for an incremental admit,
// building one lazily: before the first mutation it joins the snapshot's
// own lazy build (so the analysis is shared with concurrent tests), after a
// mutation it builds privately over the working set. Build failures stick
// until the next mutation.
func (st *batchState) ensureBaseline(e *Engine, snap *Snapshot) (*analysis.Baseline, error) {
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
		net := &topo.Network{
			Servers:     e.servers,
			Connections: append([]topo.Connection(nil), st.admitted...),
		}
		base, err = e.analyzer.NewBaseline(net)
		if err == nil {
			e.epoch.Add(1)
		}
	}
	if err != nil {
		st.buildFailed = true
		return nil, err
	}
	st.base = base
	return base, nil
}

// admit advances the working state past an accepted candidate. ext is the
// incremental extension to promote; nil (a full-path or degraded admit)
// leaves the would-be set without a baseline, and the next incremental
// admit rebuilds one over it.
func (st *batchState) admit(cand topo.Connection, ext *analysis.Extension) {
	st.admitted = append(st.admitted, cand)
	st.base = nil
	if ext != nil {
		st.base = ext.Promote()
	}
	st.mutated = true
	st.buildFailed = false
}

// admitStep is THE admission test — the one implementation of precheck ->
// affected set -> extend -> evaluate, run by ApplyBatch against the
// accumulating working state and by TestBatch against a pinned snapshot's.
// It never advances st: the caller applies st.admit on an accepted live
// candidate. It returns the decision plus, on the incremental path, the
// extension to promote. A cancellation surfaces as a bare error (never as a
// CodeInvalidSpec decision, and never by silently falling through to the
// more expensive full path).
//
// A nil snap (the cross-shard union test, which has none) forces one full
// analysis; so does an expired soft budget with no working baseline.
func (e *Engine) admitStep(ctx context.Context, snap *Snapshot, st *batchState, cand topo.Connection) (Decision, *analysis.Extension, error) {
	if d, err := precheck(cand); err != nil {
		return d, nil, err
	}
	trial := &topo.Network{Servers: e.servers, Connections: make([]topo.Connection, 0, len(st.admitted)+1)}
	trial.Connections = append(append(trial.Connections, st.admitted...), cand)
	// st.base, when present, is the baseline over exactly st.admitted — that
	// set was validated when it was committed, so its checker validates the
	// candidate in O(candidate); a nil working baseline (cold start, after a
	// release that dropped it) degrades to the identical full validation.
	if err := st.base.ValidateExtend(trial); err != nil {
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, nil, err
	}
	if !trial.Stable() {
		return Decision{Code: CodeUnstable, Reason: "network would be unstable"}, nil, nil
	}
	if snap != nil {
		affected, _ := AffectedSet(len(e.servers), st.admitted, cand)
		e.observeAffected(len(affected))
		if st.base != nil || !analysis.Expired(ctx) {
			if base, err := st.ensureBaseline(e, snap); err == nil {
				ext, err := base.ExtendContext(ctx, cand)
				if err == nil {
					e.incTests.Add(1)
					d := evaluate(trial, ext.Result())
					if analysis.Degraded(ctx) {
						// Its traces depend on when the budget ran out.
						ext = nil
					}
					return d, ext, nil
				}
				if IsCanceled(err) {
					return Decision{}, nil, err
				}
			}
			// Baseline or extension failure: fall through to the full path,
			// which reproduces Controller.Test exactly (including its error).
		}
	}
	e.fullTests.Add(1)
	res, err := e.analyzer.AnalyzeContext(ctx, trial)
	if err != nil {
		if IsCanceled(err) {
			return Decision{}, nil, err
		}
		return Decision{Code: CodeInvalidSpec, Reason: err.Error()}, nil, err
	}
	return evaluate(trial, res), nil, nil
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
func (e *Engine) releaseStep(ctx context.Context, st *batchState, name string, shrink bool) (OpResult, error) {
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
	// Room for one append, so a release-then-admit envelope copies once.
	survivors := make([]topo.Connection, 0, len(st.admitted))
	survivors = append(append(survivors, st.admitted[:idx]...), st.admitted[idx+1:]...)
	info := ReleaseInfo{Affected: -1}
	var shrunk *analysis.Baseline
	if shrink && st.base != nil {
		ext, err := st.base.ShrinkContext(ctx, idx)
		if IsCanceled(err) {
			return OpResult{}, err
		}
		if err == nil && !analysis.Degraded(ctx) {
			affected, _ := AffectedSet(len(e.servers), survivors, st.admitted[idx])
			info = ReleaseInfo{Incremental: true, Affected: len(affected)}
			e.observeAffected(len(affected))
			shrunk = ext.Promote()
		}
	}
	if shrunk != nil {
		e.incRels.Add(1)
	} else {
		e.compactRels.Add(1)
	}
	st.admitted = survivors
	st.base = shrunk
	st.mutated = true
	st.buildFailed = false
	return OpResult{Released: true, Release: info}, nil
}

// commitBatch installs the working state as the next snapshot version iff
// snap is still current — the envelope's single epoch-stamped commit.
func (e *Engine) commitBatch(snap *Snapshot, st *batchState) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.snap.Load() != snap {
		return false
	}
	next := &Snapshot{eng: e, version: snap.version + 1, admitted: st.admitted, promoted: st.base}
	if st.base != nil {
		e.epoch.Add(1)
	}
	e.snap.Store(next)
	e.batchComs.Add(1)
	return true
}

// test dry-runs one candidate against this pinned snapshot.
func (s *Snapshot) test(ctx context.Context, cand topo.Connection) (Decision, error) {
	d, _, err := s.eng.admitStep(ctx, s, s.workingState(), cand)
	return d, err
}
