// Package service is the serving layer of the repository: a goroutine-safe
// admission-control state, an LRU cache for analysis results, request
// metrics, a multi-tenant network registry, and the HTTP/JSON handlers
// that delayd (cmd/delayd) mounts. The command-line tools reuse the same
// State so that CLI and daemon drive one admission implementation.
package service

import (
	"context"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// State is the live admission fabric shared by concurrent HTTP handlers
// and the CLIs: an admission.ShardedEngine plus the immutable fabric
// description the handlers resolve requests against. The fabric is
// partitioned into independent server-sharing components, one engine shard
// per component group, so disjoint workloads commit without contending;
// every envelope analyzes an immutable snapshot OUTSIDE any lock and
// commits with a version check (retrying on conflict). One shard (NewState)
// routes exactly as many do.
//
// Every write is ApplyBatch and every test is TestBatch — a single admit,
// release or dry run is an envelope of one. All accessors return copies.
type State struct {
	eng     *admission.ShardedEngine
	servers []server.Server // immutable after construction
	index   map[string]int  // server name -> index; immutable after construction
}

// NewState builds a single-shard admission state over the given fabric.
func NewState(servers []server.Server, analyzer analysis.Analyzer) (*State, error) {
	return NewStateShards(servers, analyzer, 1)
}

// NewStateShards builds an admission state whose engine is partitioned
// into the given number of shards. Connections whose components stay
// disjoint commit on independent shards; admissions that span shards fall
// back to a global epoch-stamped commit. Server names must be unique:
// requests address fabric servers by name.
func NewStateShards(servers []server.Server, analyzer analysis.Analyzer, shards int) (*State, error) {
	eng, err := admission.NewShardedEngine(servers, analyzer, shards)
	if err != nil {
		return nil, err
	}
	index, err := netspec.ServerIndex(servers)
	if err != nil {
		return nil, err
	}
	cp := make([]server.Server, len(servers))
	copy(cp, servers)
	return &State{eng: eng, servers: cp, index: index}, nil
}

// Engine exposes the underlying sharded admission engine (metrics, stats,
// and FillGreedy).
func (s *State) Engine() *admission.ShardedEngine { return s.eng }

// Shards returns the engine's shard count.
func (s *State) Shards() int { return s.eng.Shards() }

// Servers returns a copy of the fabric the state admits against.
func (s *State) Servers() []server.Server {
	cp := make([]server.Server, len(s.servers))
	copy(cp, s.servers)
	return cp
}

// ApplyBatch evaluates a whole mixed admit/release envelope: every
// operation sees the set as left by its predecessors, and the envelope
// commits one snapshot per shard touched instead of one per op. A canceled
// call (admission.IsCanceled) reports in BatchResult.Commits how many
// shards had already committed; zero means nothing was.
func (s *State) ApplyBatch(ctx context.Context, ops []admission.Op) (*admission.BatchResult, error) {
	return s.eng.ApplyBatch(ctx, ops)
}

// TestBatch evaluates a dry-run envelope of candidates against one pinned
// snapshot per shard: the report is internally consistent even while
// concurrent admissions commit, and each candidate is judged against the
// current admitted set alone. Nothing is committed.
func (s *State) TestBatch(ctx context.Context, cands []topo.Connection) ([]admission.OpResult, error) {
	return s.eng.TestBatch(ctx, cands)
}

// WarmBaseline synchronously materializes every shard's analysis baseline
// so the next admission test runs incrementally at full speed.
func (s *State) WarmBaseline() error { return s.eng.WarmBaseline() }

// Count returns the number of admitted connections.
func (s *State) Count() int { return s.eng.Count() }

// Utilization returns the per-server utilization of the admitted set.
func (s *State) Utilization() []float64 { return s.eng.Utilization() }

// SnapshotVersion returns the replica-read snapshot version: the sum of
// every shard's snapshot version, monotone under every commit. GET
// responses expose it as X-Snapshot-Version so clients can correlate a
// read with the write history it reflects.
func (s *State) SnapshotVersion() uint64 { return s.eng.SnapshotVersion() }

// ReadView returns the admitted set, the snapshot version, and per-server
// utilization in one consistent view assembled from the latest immutable
// promoted shard snapshots — the lock-free read-replica path GET endpoints
// serve from.
func (s *State) ReadView() (conns []topo.Connection, version uint64, util []float64) {
	conns, version = s.eng.ReadView()
	net := &topo.Network{Servers: s.servers, Connections: conns}
	return conns, version, net.Utilization()
}
