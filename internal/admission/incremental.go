// Incremental, concurrent admission control.
//
// Engine replaces the serialize-everything pattern (a mutex around
// Controller for the whole analysis) with versioned immutable snapshots:
// an envelope analyzes a snapshot outside any lock and commits with a
// version check, retrying on conflict (ApplyBatch in batch.go is the only
// write entry point, a pinned snapshot's test the only dry run). Each
// snapshot carries
// a lazily built analysis baseline, so a test re-analyzes only the
// candidate's downstream interference closure and an admission promotes
// the extended baseline at no extra cost. Decisions and bounds are
// bit-identical to Controller's full re-analysis.
package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
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

// Stats is a point-in-time copy of the engine's counters.
type Stats struct {
	// IncrementalTests and FullTests count admission analyses by path.
	IncrementalTests uint64
	FullTests        uint64
	// IncrementalReleases counts removals that shrank the baseline in
	// place (scoped unit-trace replay); CompactedReleases counts removals
	// that dropped it (the next incremental test rebuilds it).
	IncrementalReleases uint64
	CompactedReleases   uint64
	// BaselineEpoch counts baseline materializations: promotions on admit,
	// shrinks on release, and lazy rebuilds.
	BaselineEpoch uint64
	// CommitConflicts counts envelope retries forced by a concurrent commit.
	CommitConflicts uint64
	// BatchEnvelopes counts ApplyBatch calls — every write, single admits
	// and releases included, since each is an envelope of one — BatchOps
	// the operations they carried, and BatchCommits the snapshot commits
	// they installed. A mutating envelope commits exactly once regardless
	// of its size (BatchCommits <= BatchEnvelopes always; strictly fewer
	// when some envelopes left the admitted set untouched, e.g. a rejected
	// single admit), which is the pipelining invariant CI gates on.
	BatchEnvelopes uint64
	BatchOps       uint64
	BatchCommits   uint64
	// AffectedBuckets holds, per entry of AffectedBucketBounds, how many
	// tests had an affected set of at most that many connections (raw,
	// not cumulative); AffectedCount and AffectedSum summarize them.
	AffectedBuckets []uint64
	AffectedCount   uint64
	AffectedSum     uint64
}

// add sums other into s field by field (ShardedEngine.Stats over its
// shards); a new counter is added here, next to its definition.
func (s *Stats) add(other Stats) {
	s.IncrementalTests += other.IncrementalTests
	s.FullTests += other.FullTests
	s.IncrementalReleases += other.IncrementalReleases
	s.CompactedReleases += other.CompactedReleases
	s.BaselineEpoch += other.BaselineEpoch
	s.CommitConflicts += other.CommitConflicts
	s.BatchEnvelopes += other.BatchEnvelopes
	s.BatchOps += other.BatchOps
	s.BatchCommits += other.BatchCommits
	if s.AffectedBuckets == nil {
		s.AffectedBuckets = make([]uint64, len(other.AffectedBuckets))
	}
	for i, v := range other.AffectedBuckets {
		s.AffectedBuckets[i] += v
	}
	s.AffectedCount += other.AffectedCount
	s.AffectedSum += other.AffectedSum
}

// AffectedBucketBounds returns the histogram bucket upper bounds.
func AffectedBucketBounds() []float64 {
	return append([]float64(nil), affectedBuckets...)
}

// Engine is a goroutine-safe admission controller over a fixed fabric.
// All reads and tests run against immutable snapshots; mutations swap the
// snapshot pointer under a short lock that never covers an analysis.
type Engine struct {
	servers     []server.Server
	analyzer    analysis.Analyzer
	mu          sync.Mutex // serializes snapshot swaps only
	snap        atomic.Pointer[Snapshot]
	incTests    atomic.Uint64
	fullTests   atomic.Uint64
	incRels     atomic.Uint64
	compactRels atomic.Uint64
	epoch       atomic.Uint64
	conflicts   atomic.Uint64
	batchEnvs   atomic.Uint64
	batchOps    atomic.Uint64
	batchComs   atomic.Uint64
	affBucket   []atomic.Uint64
	affCount    atomic.Uint64
	affSum      atomic.Uint64
}

// NewEngine builds an engine over the given fabric.
func NewEngine(servers []server.Server, analyzer analysis.Analyzer) (*Engine, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("admission: no servers")
	}
	for i, s := range servers {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("admission: server %d: %w", i, err)
		}
	}
	if analyzer == nil {
		return nil, fmt.Errorf("admission: nil analyzer")
	}
	cp := make([]server.Server, len(servers))
	copy(cp, servers)
	e := &Engine{
		servers:   cp,
		analyzer:  analyzer,
		affBucket: make([]atomic.Uint64, len(affectedBuckets)+1),
	}
	e.snap.Store(&Snapshot{eng: e})
	return e, nil
}

// Stats copies the engine's counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		IncrementalTests:    e.incTests.Load(),
		FullTests:           e.fullTests.Load(),
		IncrementalReleases: e.incRels.Load(),
		CompactedReleases:   e.compactRels.Load(),
		BaselineEpoch:       e.epoch.Load(),
		CommitConflicts:     e.conflicts.Load(),
		BatchEnvelopes:      e.batchEnvs.Load(),
		BatchOps:            e.batchOps.Load(),
		BatchCommits:        e.batchComs.Load(),
		AffectedBuckets:     make([]uint64, len(e.affBucket)),
		AffectedCount:       e.affCount.Load(),
		AffectedSum:         e.affSum.Load(),
	}
	for i := range e.affBucket {
		st.AffectedBuckets[i] = e.affBucket[i].Load()
	}
	return st
}

func (e *Engine) observeAffected(n int) {
	i := 0
	for ; i < len(affectedBuckets); i++ {
		if float64(n) <= affectedBuckets[i] {
			break
		}
	}
	e.affBucket[i].Add(1)
	e.affCount.Add(1)
	e.affSum.Add(uint64(n))
}

// Snapshot is an immutable view of the admitted set at one version. Tests
// against a snapshot are pure and may run concurrently.
type Snapshot struct {
	eng      *Engine
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

// Snapshot returns the current version of the admitted set.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Version identifies the snapshot; it increases with every commit.
func (s *Snapshot) Version() uint64 { return s.version }

// Count returns the number of admitted connections.
func (s *Snapshot) Count() int { return len(s.admitted) }

// Admitted returns a copy of the snapshot's admitted set.
func (s *Snapshot) Admitted() []topo.Connection {
	out := make([]topo.Connection, len(s.admitted))
	copy(out, s.admitted)
	return out
}

// baseline returns the snapshot's analysis baseline, building it (one full
// analysis of the admitted set) at most once.
func (s *Snapshot) baseline() (*analysis.Baseline, error) {
	if s.promoted != nil {
		return s.promoted, nil
	}
	s.baseOnce.Do(func() {
		// NewBaseline takes its own copy of the list.
		s.base, s.baseErr = s.eng.analyzer.NewBaseline(&topo.Network{Servers: s.eng.servers, Connections: s.admitted})
		if s.baseErr == nil {
			s.eng.epoch.Add(1)
			s.baseReady.Store(true)
		}
	})
	return s.base, s.baseErr
}

// cachedBaseline returns the snapshot's baseline only if one is already
// materialized (promoted by a commit or completed by a lazy build). It
// never builds one: the release path must not pay a full analysis just to
// shrink it.
func (s *Snapshot) cachedBaseline() *analysis.Baseline {
	if s.promoted != nil {
		return s.promoted
	}
	if s.baseReady.Load() {
		return s.base
	}
	return nil
}

// replaceAdmitted installs a wholesale new admitted set as the next
// version: an epoch-stamped commit with no baseline, used by ShardedEngine
// when a cross-shard admission or a rebalance migrates connections between
// shards. The next incremental test rebuilds the baseline lazily.
func (e *Engine) replaceAdmitted(conns []topo.Connection) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.snap.Load()
	next := &Snapshot{eng: e, version: cur.version + 1}
	next.admitted = append(next.admitted, conns...)
	e.snap.Store(next)
}

// WarmBaseline synchronously materializes the current snapshot's analysis
// baseline so the next admission test runs incrementally at full speed. It
// is a no-op when a baseline is already warm (e.g. after an incremental
// release). Daemons call it after startup pre-admission; benchmarks use it
// to charge a release that dropped the baseline with the rebuild it forces.
func (e *Engine) WarmBaseline() error {
	_, err := e.Snapshot().baseline()
	return err
}

// Admitted returns a copy of the currently admitted connections.
func (e *Engine) Admitted() []topo.Connection { return e.Snapshot().Admitted() }

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
