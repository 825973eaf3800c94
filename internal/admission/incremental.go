// Incremental, concurrent admission control within one shard.
//
// A shard replaces the serialize-everything pattern (a mutex around
// Controller for the whole analysis) with versioned immutable snapshots:
// a sub-batch analyzes a snapshot outside any lock and commits with a
// version check, retrying on conflict (applyBatch in batch.go is a shard's
// only write path, a pinned snapshot's test its only dry run). Each
// snapshot carries a lazily built analysis baseline, so a test re-analyzes
// only the candidate's downstream interference closure and an admission
// promotes the extended baseline at no extra cost. Decisions and bounds are
// bit-identical to Controller's full re-analysis.
package admission

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// IsCanceled reports whether an admission-test error is a context
// cancellation or deadline expiry (as opposed to an invalid candidate or
// analyzer failure). Callers use it to tell "the request was cut off"
// from "the request was bad".
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// AffectedSet computes the downstream interference closure of a candidate
// route over the server-sharing graph: a connection is affected when its
// route intersects a tainted server; once affected, the suffix of its
// route from the first tainted hop becomes tainted too, because the
// candidate inflates the local delay there and the connection's output
// burstiness propagates the inflation downstream. Iterated to a fixpoint.
//
// It returns the indices (into admitted) of affected connections, in
// increasing order, and the set of tainted servers. The closure is the
// conceptual affected set the incremental analysis may re-analyze; the
// engine reports its size in the affected-set histogram.
func AffectedSet(nServers int, admitted []topo.Connection, cand topo.Connection) (conns []int, tainted []bool) {
	tainted = make([]bool, nServers)
	for _, s := range cand.Path {
		if s >= 0 && s < nServers {
			tainted[s] = true
		}
	}
	affected := make([]bool, len(admitted))
	for changed := true; changed; {
		changed = false
		for i, c := range admitted {
			if affected[i] {
				continue
			}
			hit := -1
			for k, s := range c.Path {
				if tainted[s] {
					hit = k
					break
				}
			}
			if hit < 0 {
				continue
			}
			affected[i] = true
			changed = true
			for _, s := range c.Path[hit:] {
				if !tainted[s] {
					tainted[s] = true
				}
			}
		}
	}
	for i, a := range affected {
		if a {
			conns = append(conns, i)
		}
	}
	return conns, tainted
}

// affectedBuckets are the upper bounds of the affected-set size histogram.
var affectedBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// AffectedBucketBounds returns the histogram bucket upper bounds.
func AffectedBucketBounds() []float64 {
	return append([]float64(nil), affectedBuckets...)
}

// shard is one partition of a ShardedEngine: the chain of immutable
// snapshots of the connections it holds, swapped under a short lock that
// never covers an analysis, and its own test and release counters. The
// fabric, the analyzer and every other counter are its engine's.
type shard struct {
	se          *ShardedEngine
	mu          sync.Mutex // serializes snapshot swaps only
	snap        atomic.Pointer[snapshot]
	incTests    atomic.Uint64
	fullTests   atomic.Uint64
	incRels     atomic.Uint64
	compactRels atomic.Uint64
}

// snapshot is an immutable view of a shard's admitted set at one version.
// Tests against a snapshot are pure and may run concurrently.
type snapshot struct {
	sh       *shard
	version  uint64
	admitted []topo.Connection
	// promoted is a baseline handed over by the commit that created this
	// snapshot; baseOnce/base/baseErr lazily build one otherwise, with
	// baseReady flipping once a lazy build has succeeded so release can
	// peek without joining an in-flight build.
	promoted  *analysis.Baseline
	baseOnce  sync.Once
	base      *analysis.Baseline
	baseErr   error
	baseReady atomic.Bool
}

// baseline returns the snapshot's analysis baseline, building it (one full
// analysis of the admitted set) at most once.
func (s *snapshot) baseline() (*analysis.Baseline, error) {
	if s.promoted != nil {
		return s.promoted, nil
	}
	s.baseOnce.Do(func() {
		se := s.sh.se
		// NewBaseline takes its own copy of the list.
		s.base, s.baseErr = se.analyzer.NewBaseline(&topo.Network{Servers: se.servers, Connections: s.admitted})
		if s.baseErr == nil {
			se.epoch.Add(1)
			s.baseReady.Store(true)
		}
	})
	return s.base, s.baseErr
}

// cachedBaseline returns the snapshot's baseline only if one is already
// materialized (promoted by a commit or completed by a lazy build). It
// never builds one: the release path must not pay a full analysis just to
// shrink it.
func (s *snapshot) cachedBaseline() *analysis.Baseline {
	if s.promoted != nil {
		return s.promoted
	}
	if s.baseReady.Load() {
		return s.base
	}
	return nil
}

// replaceAdmitted installs a wholesale new admitted set as the next
// version: an epoch-stamped commit with no baseline, used when a
// cross-shard admission or a rebalance migrates connections between
// shards. The next incremental test rebuilds the baseline lazily.
func (sh *shard) replaceAdmitted(conns []topo.Connection) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.snap.Load()
	next := &snapshot{sh: sh, version: cur.version + 1}
	next.admitted = append(next.admitted, conns...)
	sh.snap.Store(next)
}

// Admitted returns a copy of the shard's currently admitted connections.
func (sh *shard) Admitted() []topo.Connection {
	admitted := sh.snap.Load().admitted
	out := make([]topo.Connection, len(admitted))
	copy(out, admitted)
	return out
}

// MaxBound returns the largest finite bound of a decision's Bounds, +Inf
// when any bound is unbounded, and NaN when the test never analyzed.
func (d Decision) MaxBound() float64 {
	if d.Bounds == nil {
		return math.NaN()
	}
	m := 0.0
	for _, b := range d.Bounds {
		if math.IsInf(b, 1) {
			return b
		}
		if b > m {
			m = b
		}
	}
	return m
}
