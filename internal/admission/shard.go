// Sharded admission control over independent subnetworks.
//
// The paper's decomposition only couples connections through shared
// servers: admissions whose routes live in disjoint server-sharing
// components are provably independent (the contracted dependency graph
// never bridges components, see analysis.Components), yet a single Engine
// serializes them through one snapshot chain — every commit invalidates
// every concurrent test. ShardedEngine runs one Engine per shard, each
// with its own versioned snapshot chain, baseline, and commit loop, and
// routes operations to shards by the candidate's component. Disjoint
// workloads therefore test and commit fully in parallel.
//
// Sharding invariants:
//
//   - Every server is owned by at most one shard (router.owner); a shard
//     owns a server while at least one of its committed or claimed
//     connections traverses it (router.refs). A FIFO server's bound is a
//     function of every flow through it, so this is what makes a shard's
//     local analysis sound, not bookkeeping.
//   - A connection's entire route is owned by its shard, so each shard's
//     admitted set is a union of whole components and its local analysis
//     is bit-identical to the full-network analysis restricted to those
//     components.
//   - The router learns of a mutation only after the shard committed it
//     (reconcile, shard_batch.go): an admit is a claim until then, a
//     release keeps its record and its servers, and holds its name against
//     admits, until then.
//
// An envelope is planned against the router under the shared lock; one
// holding a barrier (an admit whose route spans shards or whose name the
// envelope already uses, see shard_batch.go) is planned again under the
// exclusive lock, where the barrier first runs and reconciles what is
// planned so far, so the router is exact when the operation is routed
// again. One that still spans shards goes to admitCross, which merges the
// involved components into one shard with an epoch-stamped commit on every
// involved engine; rebalance, the release-splits-a-component half, migrates
// a component to an empty shard the same way. Both observe no in-flight
// shard-local operation.
//
// Every shard count, one included, takes this path, and routing and release
// resolve connections by name: a candidate needs one (precheck), and a
// second admit of a live name is refused as "already admitted".
package admission

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// ShardedEngine is a goroutine-safe admission controller that partitions
// the fabric into independent components and serves each from its own
// Engine shard; one shard plans, routes and reconciles exactly as many
// do. ApplyBatch and TestBatch (shard_batch.go) are its only write and test
// paths; Admit, Release, Test and FillGreedy are envelope-of-one
// conveniences over them.
type ShardedEngine struct {
	servers  []server.Server
	analyzer analysis.Analyzer
	shards   []*Engine

	// mu is the sharding protocol lock: envelopes without a barrier hold it
	// shared (they may run concurrently with each other), envelopes with one
	// and rebalances hold it exclusively. It never serializes two
	// barrier-free operations on disjoint components.
	mu     sync.RWMutex
	router shardRouter

	crossCommits atomic.Uint64
	rebalances   atomic.Uint64
}

// shardRouter maps servers and committed connections to shards. All
// fields are guarded by its own mutex; routing decisions are O(route).
type shardRouter struct {
	mu    sync.Mutex
	owner []int // server -> shard id, -1 while unowned
	refs  []int // server -> committed+in-flight connections traversing it
	load  []int // shard -> committed+in-flight connections
	conns map[string]*routedConn
	// pending names claimed by in-flight admissions, so two concurrent
	// admits of one name cannot both commit.
	pending map[string]bool
	// releasing counts, per name, the releases planned against its record
	// and not yet reconciled. While one is, no admit may claim the name:
	// the release would remove that new incarnation instead of the one it
	// resolved, and leave the new record without a connection.
	releasing map[string]int
	seq       uint64 // global commit order stamp
}

// routedConn is the router's record of one committed connection.
type routedConn struct {
	shard int
	seq   uint64
	path  []int
}

// NewShardedEngine builds an engine with the given number of shards over
// the fabric. Every shard sees the full server list, so server indices —
// and therefore bounds — are identical to a single Engine's.
func NewShardedEngine(servers []server.Server, analyzer analysis.Analyzer, shards int) (*ShardedEngine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("admission: shard count %d < 1", shards)
	}
	se := &ShardedEngine{analyzer: analyzer}
	for i := 0; i < shards; i++ {
		eng, err := NewEngine(servers, analyzer)
		if err != nil {
			return nil, err
		}
		se.shards = append(se.shards, eng)
	}
	se.servers = se.shards[0].servers
	se.router = shardRouter{
		owner:     make([]int, len(se.servers)),
		refs:      make([]int, len(se.servers)),
		load:      make([]int, shards),
		conns:     make(map[string]*routedConn),
		pending:   make(map[string]bool),
		releasing: make(map[string]int),
	}
	for i := range se.router.owner {
		se.router.owner[i] = -1
	}
	return se, nil
}

// Shards returns the number of engine shards.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard exposes one shard's engine for tests and diagnostics.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Analyzer returns the analyzer admission tests run.
func (se *ShardedEngine) Analyzer() analysis.Analyzer { return se.analyzer }

// ShardStat is a point-in-time summary of one shard.
type ShardStat struct {
	Admitted            int
	Version             uint64
	IncrementalTests    uint64
	FullTests           uint64
	IncrementalReleases uint64
	CompactedReleases   uint64
}

// ShardedStats aggregates the per-shard engine counters plus the
// cross-shard protocol counters.
type ShardedStats struct {
	Stats
	// Shards is the configured shard count.
	Shards int
	// CrossShardCommits counts global epoch-stamped commits: component
	// merges (an admission spanning shards) plus rebalances (a component
	// migrated to an empty shard after a release split one).
	CrossShardCommits uint64
	// Rebalances counts the subset of CrossShardCommits that were
	// release-triggered component migrations.
	Rebalances uint64
	// PerShard summarizes each shard.
	PerShard []ShardStat
}

// Stats aggregates every shard's counters. The embedded Stats sums
// field-wise across shards (a cross-shard union analysis counts as a full
// test of the first involved shard), so a one-shard engine reports exactly
// Engine.Stats.
func (se *ShardedEngine) Stats() ShardedStats {
	agg := ShardedStats{
		Shards:            len(se.shards),
		CrossShardCommits: se.crossCommits.Load() + se.rebalances.Load(),
		Rebalances:        se.rebalances.Load(),
	}
	for _, sh := range se.shards {
		st := sh.Stats()
		snap := sh.Snapshot()
		agg.Stats.add(st)
		agg.PerShard = append(agg.PerShard, ShardStat{
			Admitted:            snap.Count(),
			Version:             snap.Version(),
			IncrementalTests:    st.IncrementalTests,
			FullTests:           st.FullTests,
			IncrementalReleases: st.IncrementalReleases,
			CompactedReleases:   st.CompactedReleases,
		})
	}
	return agg
}

// SnapshotVersion is the engine's global version: the sum of the shard
// snapshot versions. It increases with every commit anywhere and equals
// Engine's snapshot version exactly when running with one shard.
func (se *ShardedEngine) SnapshotVersion() uint64 {
	var v uint64
	for _, sh := range se.shards {
		v += sh.Snapshot().Version()
	}
	return v
}

// ReadView is the replica-read path: a copy of the admitted set and the
// global version, assembled lock-free from each shard's immutable current
// snapshot. During a concurrent cross-shard migration a connection may
// transiently appear in two shards (deduplicated here by name) or in
// none; readers get eventual consistency, never a torn connection.
func (se *ShardedEngine) ReadView() ([]topo.Connection, uint64) {
	var conns []topo.Connection
	var version uint64
	seen := make(map[string]bool)
	for _, sh := range se.shards {
		s := sh.Snapshot()
		version += s.Version()
		for _, c := range s.admitted {
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			conns = append(conns, c)
		}
	}
	return conns, version
}

// Admitted returns a copy of the currently admitted connections (shard
// order, each shard in its own commit order; exactly Engine's order with
// one shard).
func (se *ShardedEngine) Admitted() []topo.Connection {
	conns, _ := se.ReadView()
	return conns
}

// Count returns the number of admitted connections.
func (se *ShardedEngine) Count() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.Snapshot().Count()
	}
	return n
}

// Utilization returns the per-server utilization of the admitted set.
func (se *ShardedEngine) Utilization() []float64 {
	conns, _ := se.ReadView()
	net := &topo.Network{Servers: se.servers, Connections: conns}
	return net.Utilization()
}

// WarmBaseline synchronously materializes every shard's baseline.
func (se *ShardedEngine) WarmBaseline() error {
	for _, sh := range se.shards {
		if err := sh.WarmBaseline(); err != nil {
			return err
		}
	}
	return nil
}

// route resolves where a candidate over path would be admitted: the shard
// owning its servers, or, with none of them owned, the shard with the
// fewest committed and claimed connections (lowest id on ties, so the new
// components of one envelope spread over the shards exactly as
// one-at-a-time admissions would). owners lists the distinct owning shards
// in ascending order; more than one means the route spans shards and shard
// is meaningless. Caller must hold r.mu.
func (r *shardRouter) route(path []int) (shard int, owners []int) {
	for _, s := range path {
		if o := r.owner[s]; o >= 0 && !slices.Contains(owners, o) {
			owners = append(owners, o)
		}
	}
	sort.Ints(owners)
	if len(owners) > 0 {
		return owners[0], owners
	}
	for i := 1; i < len(r.load); i++ {
		if r.load[i] < r.load[shard] {
			shard = i
		}
	}
	return shard, nil
}

// uniqueServers appends the distinct in-range servers of path to buf.
func uniqueServers(buf []int, path []int, n int) []int {
	for _, s := range path {
		if s < 0 || s >= n {
			continue
		}
		dup := false
		for _, t := range buf {
			if t == s {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, s)
		}
	}
	return buf
}

// pin counts one connection over path onto the shard: a reference on every
// server of the route, ownership of those nobody owns yet, one unit of
// load. Caller must hold r.mu.
func (r *shardRouter) pin(path []int, shard int) {
	for _, s := range uniqueServers(nil, path, len(r.owner)) {
		if r.owner[s] < 0 {
			r.owner[s] = shard
		}
		r.refs[s]++
	}
	r.load[shard]++
}

// unpin undoes pin, freeing ownership of servers no committed or in-flight
// connection traverses anymore. Caller must hold r.mu.
func (r *shardRouter) unpin(path []int, shard int) {
	for _, s := range uniqueServers(nil, path, len(r.owner)) {
		r.refs[s]--
		if r.refs[s] == 0 {
			r.owner[s] = -1
		}
	}
	r.load[shard]--
}

// record installs a pinned connection's routing record and assigns it the
// next global commit sequence number. Caller must hold r.mu.
func (r *shardRouter) record(cand topo.Connection, shard int) {
	r.conns[cand.Name] = &routedConn{shard: shard, seq: r.seq, path: cand.Path}
	r.seq++
}

// move re-homes a recorded connection, and ownership of its route, to
// another shard. Every connection sharing a server with it must move in
// the same critical section (callers migrate whole components). Caller
// must hold r.mu.
func (r *shardRouter) move(rc *routedConn, to int) {
	r.load[rc.shard]--
	r.load[to]++
	rc.shard = to
	for _, s := range uniqueServers(nil, rc.path, len(r.owner)) {
		r.owner[s] = to
	}
}

// claim routes an admission candidate: it either pins the route to one
// shard (reserving its servers for the duration of the analysis), or
// reports that the route spans shards (len(owners) > 1) or that the name is
// already taken (dup), claiming nothing. Caller must hold se.mu at least
// shared.
func (r *shardRouter) claim(cand topo.Connection) (shard int, owners []int, dup bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conns[cand.Name] != nil || r.pending[cand.Name] || r.releasing[cand.Name] > 0 {
		return 0, nil, true
	}
	shard, owners = r.route(cand.Path)
	if len(owners) <= 1 {
		r.pin(cand.Path, shard)
		r.pending[cand.Name] = true
	}
	return shard, owners, false
}

// unclaim hands back the claim of a rejected or never-run admission.
func (r *shardRouter) unclaim(cand topo.Connection, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pending, cand.Name)
	r.unpin(cand.Path, shard)
}

// confirm converts the claim of a committed admission into its routing
// record.
func (r *shardRouter) confirm(cand topo.Connection, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pending, cand.Name)
	r.record(cand, shard)
}

// claimRelease resolves a committed connection's shard by name for a
// release and holds the name against admits until the release reconciles.
func (r *shardRouter) claimRelease(name string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rc := r.conns[name]
	if rc == nil {
		return 0, false
	}
	r.releasing[name]++
	return rc.shard, true
}

// release hands back a release's claim, when it holds one, and drops the
// routing record of the connection it removed, when it committed, giving
// its route back; a concurrent release of the same name may have dropped
// it already.
func (r *shardRouter) release(name string, claimed, released bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if claimed {
		if r.releasing[name]--; r.releasing[name] == 0 {
			delete(r.releasing, name)
		}
	}
	if rc := r.conns[name]; released && rc != nil {
		delete(r.conns, name)
		r.unpin(rc.path, rc.shard)
	}
}

// validRoute reports whether the candidate passes precheck and every hop
// is an in-range server index; the router only tracks valid candidates,
// invalid ones go straight to shard 0 for the canonical rejection.
func (se *ShardedEngine) validRoute(cand topo.Connection) bool {
	if _, err := precheck(cand); err != nil || len(cand.Path) == 0 {
		return false
	}
	for _, s := range cand.Path {
		if s < 0 || s >= len(se.servers) {
			return false
		}
	}
	return true
}

// seqConn pairs a committed connection with its global commit stamp.
type seqConn struct {
	conn  topo.Connection
	seq   uint64
	shard int
}

// snapshots returns every shard's current snapshot.
func (se *ShardedEngine) snapshots() []*Snapshot {
	snaps := make([]*Snapshot, len(se.shards))
	for i, sh := range se.shards {
		snaps[i] = sh.Snapshot()
	}
	return snaps
}

// gatherUnion assembles the admitted sets of the given shards, as pinned in
// snaps, in global commit order. Connections a concurrent commit has
// installed in a shard snapshot but not yet confirmed in the router sort
// after all confirmed ones, preserving snapshot order (only reachable from
// the dry-test path; cross-shard commits hold the exclusive lock and see
// no such gap).
func (se *ShardedEngine) gatherUnion(owners []int, snaps []*Snapshot) []seqConn {
	var union []seqConn
	se.router.mu.Lock()
	defer se.router.mu.Unlock()
	pendingSeq := uint64(math.MaxUint64/2) + 1
	for _, o := range owners {
		for _, c := range snaps[o].admitted {
			sc := seqConn{conn: c, shard: o}
			if rc := se.router.conns[c.Name]; rc != nil && rc.shard == o {
				sc.seq = rc.seq
			} else {
				sc.seq = pendingSeq
				pendingSeq++
			}
			union = append(union, sc)
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i].seq < union[j].seq })
	return union
}

// unionConns lists a gathered union's connections, with room for one
// candidate to be appended.
func unionConns(union []seqConn) []topo.Connection {
	conns := make([]topo.Connection, len(union), len(union)+1)
	for i, sc := range union {
		conns[i] = sc.conn
	}
	return conns
}

// unionTest runs the admission step as one full analysis over the union of
// the involved shards plus the candidate (charged to the first owner's
// full-test counter). Because every server the trial loads is owned by an
// involved shard, stability and deadline checks over the union are
// identical to the full network's (uninvolved components cannot interact
// with it).
func (se *ShardedEngine) unionTest(ctx context.Context, owners []int, conns []topo.Connection, cand topo.Connection) (Decision, error) {
	d, _, err := se.shards[owners[0]].admitStep(ctx, nil, &batchState{admitted: conns}, cand)
	return d, err
}

// admitCross admits a candidate whose route spans the given (two or more)
// owner shards: it analyzes the union of the involved shards plus the
// candidate, and on success migrates the candidate's merged component into
// one winner shard with epoch-stamped commits on every involved engine.
// Caller must hold se.mu exclusively with no claim outstanding (no
// shard-local operation in flight, the envelope's own window reconciled).
func (se *ShardedEngine) admitCross(ctx context.Context, cand topo.Connection, owners []int) (Decision, error) {
	union := se.gatherUnion(owners, se.snapshots())
	conns := unionConns(union)
	d, err := se.unionTest(ctx, owners, conns, cand)
	if err != nil || !d.Admitted {
		return d, err
	}

	// Commit: compute the candidate's merged component over the union and
	// migrate it wholesale into the involved shard holding the most of it.
	view := analysis.Components(&topo.Network{Servers: se.servers, Connections: append(conns, cand)})
	candComp := view.Conn[len(union)]
	perShard := make(map[int]int)
	for i, sc := range union {
		if view.Conn[i] == candComp {
			perShard[sc.shard]++
		}
	}
	winner := owners[0]
	for _, o := range owners[1:] {
		if perShard[o] > perShard[winner] {
			winner = o
		}
	}

	se.router.mu.Lock()
	var merged []seqConn // winner's survivors plus migrated members
	kept := make(map[int][]topo.Connection)
	for i, sc := range union {
		inComp := view.Conn[i] == candComp
		if sc.shard == winner || inComp {
			merged = append(merged, sc)
		} else {
			kept[sc.shard] = append(kept[sc.shard], sc.conn)
		}
		if inComp && sc.shard != winner {
			se.router.move(se.router.conns[sc.conn.Name], winner)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })
	next := make([]topo.Connection, 0, len(merged)+1)
	for _, sc := range merged {
		next = append(next, sc.conn)
	}
	next = append(next, cand)
	// Every owned server of the candidate's route now belongs to the winner
	// (its owners were all members of the merged component).
	se.router.pin(cand.Path, winner)
	se.router.record(cand, winner)
	se.router.mu.Unlock()

	for _, o := range owners {
		if o == winner {
			se.shards[o].replaceAdmitted(next)
		} else {
			se.shards[o].replaceAdmitted(kept[o])
		}
	}
	se.crossCommits.Add(1)
	return d, nil
}

// wantRebalance cheaply checks whether migrating a component off the
// shard could restore parallelism: some other shard is empty and the
// source holds at least two connections (a one-connection shard holds at
// most one component).
func (se *ShardedEngine) wantRebalance(from int) bool {
	se.router.mu.Lock()
	defer se.router.mu.Unlock()
	if se.router.load[from] < 2 {
		return false
	}
	for i, l := range se.router.load {
		if i != from && l == 0 {
			return true
		}
	}
	return false
}

// rebalance migrates the smallest independent component of the source
// shard to an empty shard under the exclusive lock — the release-splits-
// a-component half of the cross-shard protocol. Both engines take an
// epoch-stamped replaceAdmitted commit.
func (se *ShardedEngine) rebalance(from int) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.router.mu.Lock()
	target := -1
	for i, l := range se.router.load {
		if i != from && l == 0 {
			target = i
			break
		}
	}
	fromLoad := se.router.load[from]
	se.router.mu.Unlock()
	if target < 0 || fromLoad < 2 {
		return
	}
	snap := se.shards[from].Snapshot()
	net := &topo.Network{Servers: se.servers, Connections: snap.admitted}
	view := analysis.Components(net)
	if view.Count < 2 {
		return
	}
	smallest := 0
	for c := 1; c < view.Count; c++ {
		if view.Sizes[c] < view.Sizes[smallest] {
			smallest = c
		}
	}
	var moved, keptConns []topo.Connection
	for i, c := range snap.admitted {
		if view.Conn[i] == smallest {
			moved = append(moved, c)
		} else {
			keptConns = append(keptConns, c)
		}
	}
	se.router.mu.Lock()
	for _, c := range moved {
		if rc := se.router.conns[c.Name]; rc != nil && rc.shard == from {
			se.router.move(rc, target)
		}
	}
	se.router.mu.Unlock()
	se.shards[from].replaceAdmitted(keptConns)
	se.shards[target].replaceAdmitted(moved)
	se.rebalances.Add(1)
}

// Admit tests and commits one candidate: an ApplyBatch envelope of one.
func (se *ShardedEngine) Admit(ctx context.Context, cand topo.Connection) (Decision, error) {
	br, err := se.ApplyBatch(ctx, []Op{{Kind: OpAdmit, Candidate: cand}})
	if err != nil {
		return Decision{}, err
	}
	return br.Results[0].Decision, br.Results[0].Err
}

// Release removes one admitted connection by name and reports how: an
// ApplyBatch envelope of one. ok is false when no such connection exists.
func (se *ShardedEngine) Release(ctx context.Context, name string) (info ReleaseInfo, ok bool, err error) {
	br, err := se.ApplyBatch(ctx, []Op{{Kind: OpRelease, Name: name}})
	if err != nil {
		return ReleaseInfo{}, false, err
	}
	return br.Results[0].Release, br.Results[0].Released, nil
}

// Test dry-runs one candidate: a TestBatch envelope of one.
func (se *ShardedEngine) Test(ctx context.Context, cand topo.Connection) (Decision, error) {
	res, err := se.TestBatch(ctx, []topo.Connection{cand})
	if err != nil {
		return Decision{}, err
	}
	return res[0].Decision, res[0].Err
}

// FillGreedy admits numbered copies of the template until the first
// rejection, like Controller.FillGreedy, returning the count admitted so
// far along with the context's error when cut off. With the incremental
// path each admission extends the previous baseline instead of re-analyzing
// the whole network.
func (se *ShardedEngine) FillGreedy(ctx context.Context, template topo.Connection, limit int) (int, error) {
	n := 0
	for n < limit {
		cand := template
		cand.Name = fmt.Sprintf("%s#%d", template.Name, se.Count())
		d, err := se.Admit(ctx, cand)
		if err != nil {
			return n, err
		}
		if !d.Admitted {
			return n, nil
		}
		n++
	}
	return n, nil
}
