package service

import (
	"context"
	"encoding/base64"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/topo"
)

// Endpoint handlers, one per row of the route table in service.go.

func (s *Server) handleAdmit(nw *Network, w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cand, err := netspec.ConnectionFromSpec(&req.Connection, nw.state.index)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "timeout_seconds must be non-negative")
		return
	}
	// An envelope of one: the test analyzes an immutable snapshot outside
	// any lock and the commit is version-checked, so a timed-out client
	// never leaves the fabric in an unknown state.
	ops := []admission.Op{{Kind: admission.OpAdmit, Candidate: cand}}
	results, degraded, ok := s.serveEnvelope(nw, w, r, epAdmit, req.DryRun, ops, req.TimeoutSeconds)
	if !ok {
		return
	}
	d := results[0].Decision
	if err := results[0].Err; err != nil {
		code := d.Code
		if code == "" {
			code = CodeInvalidSpec
		}
		writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	resp := AdmitResponse{
		Admitted:   d.Admitted,
		DryRun:     req.DryRun,
		Code:       d.Code,
		Reason:     d.Reason,
		Violations: toViolations(d.Violations),
		Bounds:     Bounds(d.Bounds),
		Count:      nw.state.Count(),
		Degraded:   degraded,
	}
	if degraded {
		resp.BoundSource = degradedSource
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleBatch(nw *Network, w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Operations) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "batch has no operations")
		return
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "timeout_seconds must be non-negative")
		return
	}
	// Validate the whole batch up front so a malformed operation 7 fails
	// the request before operation 0 commits anything.
	ops := make([]admission.Op, len(req.Operations))
	for i, op := range req.Operations {
		switch op.Op {
		case "admit":
			if op.Connection == nil {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: admit requires a connection", i))
				return
			}
			cand, err := netspec.ConnectionFromSpec(op.Connection, nw.state.index)
			if err != nil {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: %v", i, err))
				return
			}
			ops[i] = admission.Op{Kind: admission.OpAdmit, Candidate: cand}
		case "release":
			if strings.TrimSpace(op.Name) == "" {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: release requires a name", i))
				return
			}
			if req.DryRun {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec,
					fmt.Sprintf("operation %d: release is not supported in dry-run batches", i))
				return
			}
			ops[i] = admission.Op{Kind: admission.OpRelease, Name: op.Name}
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidSpec,
				fmt.Sprintf("operation %d: unknown op %q (want admit or release)", i, op.Op))
			return
		}
	}
	// One snapshot commit per shard touched instead of one per operation,
	// and no interleaving with concurrent traffic mid-envelope. A hard
	// deadline therefore sheds the whole envelope with nothing committed on
	// any shard it had not finished.
	results, degraded, ok := s.serveEnvelope(nw, w, r, epBatch, req.DryRun, ops, req.TimeoutSeconds)
	if !ok {
		return
	}

	resp := BatchResponse{DryRun: req.DryRun, Results: make([]BatchOpResult, 0, len(req.Operations))}
	for i, op := range req.Operations {
		item := BatchOpResult{Index: i, Op: op.Op}
		r := results[i]
		switch op.Op {
		case "admit":
			d := r.Decision
			dec := &BatchAdmitItem{
				Connection: ops[i].Candidate.Name,
				Admitted:   d.Admitted,
				Code:       d.Code,
				Reason:     d.Reason,
				Violations: toViolations(d.Violations),
				MaxBound:   Bound(d.MaxBound()),
				Degraded:   degraded,
			}
			switch {
			case r.Err != nil:
				item.Status = BatchStatusError
				item.Error = &ErrorDetail{Code: d.Code, Message: r.Err.Error()}
				if item.Error.Code == "" {
					item.Error.Code = CodeInvalidSpec
				}
				resp.Errors++
			case d.Admitted:
				item.Status = BatchStatusAdmitted
				item.Decision = dec
				resp.Admitted++
			default:
				item.Status = BatchStatusRejected
				item.Decision = dec
				resp.Rejected++
			}
		case "release":
			if !r.Released {
				item.Status = BatchStatusError
				item.Error = &ErrorDetail{Code: CodeNotFound,
					Message: fmt.Sprintf("no admitted connection named %q", op.Name)}
				resp.Errors++
				break
			}
			item.Status = BatchStatusReleased
			item.Mode = releaseMode(r.Release)
			resp.Released++
		}
		resp.Results = append(resp.Results, item)
	}
	resp.Count = nw.state.Count()
	writeReply(w, http.StatusOK, &resp)
}

// releaseMode names how the engine absorbed a release in API responses.
func releaseMode(info admission.ReleaseInfo) string {
	if info.Incremental {
		return "incremental"
	}
	return "compacted"
}

// encodeCursor / decodeCursor wrap the page offset in an opaque token so
// clients do not couple to the paging scheme. The token pins the snapshot
// version the listing was cut from: offsets are only meaningful within one
// immutable view, so a commit between pages (a release compacting the set,
// an admission appending to it) invalidates outstanding cursors instead of
// silently skipping or duplicating survivors.
func encodeCursor(offset int, version uint64) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(strconv.Itoa(offset) + "@" + strconv.FormatUint(version, 10)))
}

func decodeCursor(token string) (int, uint64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	off, ver, found := strings.Cut(string(raw), "@")
	if !found {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	offset, err := strconv.Atoi(off)
	if err != nil || offset < 0 {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	version, err := strconv.ParseUint(ver, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed cursor")
	}
	return offset, version, nil
}

func (s *Server) handleList(nw *Network, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0 // 0: no paging (the whole set), preserving the pre-pagination contract
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	offset := 0
	cursorVersion := uint64(0)
	hasCursor := false
	if v := q.Get("cursor"); v != "" {
		off, ver, err := decodeCursor(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
			return
		}
		offset, cursorVersion, hasCursor = off, ver, true
	}

	// Replica read: the listing is assembled lock-free from the latest
	// immutable promoted shard snapshots; the header tells the client which
	// version of the write history it reflects.
	conns, version, util := nw.state.ReadView()
	setSnapshotVersion(w, version)

	// A cursor is an offset into the snapshot it was cut from; any commit
	// since then may have reordered or compacted the set, so continuing to
	// page would skip or duplicate survivors. 410 tells the client to
	// restart the listing.
	if hasCursor && cursorVersion != version {
		writeError(w, http.StatusGone, CodeStaleCursor,
			fmt.Sprintf("cursor was cut from snapshot version %d, current is %d; restart the listing", cursorVersion, version))
		return
	}

	// ?server= narrows the listing to connections whose path crosses the
	// named fabric server.
	if name := q.Get("server"); name != "" {
		serverIdx, ok := nw.state.index[name]
		if !ok {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("no fabric server named %q", name))
			return
		}
		filtered := conns[:0]
		for _, c := range conns {
			for _, hop := range c.Path {
				if hop == serverIdx {
					filtered = append(filtered, c)
					break
				}
			}
		}
		conns = filtered
	}

	resp := ListResponse{Count: len(conns), Utilization: util}
	page := conns
	if offset > 0 {
		if offset > len(conns) {
			offset = len(conns)
		}
		page = conns[offset:]
	}
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		resp.NextCursor = encodeCursor(offset+limit, version)
	}
	spec := netspec.ToSpec(&topo.Network{Servers: nw.state.servers, Connections: page})
	resp.Connections = spec.Connections
	if resp.Connections == nil {
		resp.Connections = []netspec.ConnectionSpec{}
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleRemove(nw *Network, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "empty connection name")
		return
	}
	// An envelope of one release: it queues for an analysis slot and honours
	// the hard deadline like every other write (the shrink replays unit
	// traces under the request's context).
	ops := []admission.Op{{Kind: admission.OpRelease, Name: name}}
	results, _, ok := s.serveEnvelope(nw, w, r, epRemove, false, ops, 0)
	if !ok {
		return
	}
	if !results[0].Released {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("no admitted connection named %q", name))
		return
	}
	writeReply(w, http.StatusOK, &RemoveResponse{Removed: name, Count: nw.state.Count(), Mode: releaseMode(results[0].Release)})
}

func (s *Server) handleStats(nw *Network, w http.ResponseWriter, r *http.Request) {
	eng := nw.state.Engine()
	st := eng.Stats()
	conns, version := eng.ReadView()
	setSnapshotVersion(w, version)
	resp := StatsResponse{
		Analyzer:          eng.Analyzer().Name(),
		Incremental:       true,
		Admitted:          len(conns),
		SnapshotVersion:   version,
		Shards:            st.Shards,
		CrossShardCommits: st.CrossShardCommits,
		Rebalances:        st.Rebalances,
		BaselineEpoch:     st.BaselineEpoch,
		Tests:             StatsCounter{Incremental: st.IncrementalTests, Full: st.FullTests},
		Releases:          StatsCounter{Incremental: st.IncrementalReleases, Full: st.CompactedReleases},
		CommitConflicts:   st.CommitConflicts,
		BatchEnvelopes:    st.BatchEnvelopes,
		BatchOps:          st.BatchOps,
		BatchCommits:      st.BatchCommits,
		AffectedCount:     st.AffectedCount,
		AffectedSum:       st.AffectedSum,
	}
	bounds := admission.AffectedBucketBounds()
	cum := uint64(0)
	for i, ub := range bounds {
		cum += st.AffectedBuckets[i]
		resp.Affected = append(resp.Affected, AffectedBucket{LE: Bound(ub), Count: cum})
	}
	resp.Affected = append(resp.Affected, AffectedBucket{LE: Bound(math.Inf(1)), Count: st.AffectedCount})
	for i, sh := range st.PerShard {
		resp.PerShard = append(resp.PerShard, ShardStatSpec{
			Shard:    i,
			Admitted: sh.Admitted,
			Version:  sh.Version,
			Tests:    StatsCounter{Incremental: sh.IncrementalTests, Full: sh.FullTests},
			Releases: StatsCounter{Incremental: sh.IncrementalReleases, Full: sh.CompactedReleases},
		})
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleNetworks(_ *Network, w http.ResponseWriter, r *http.Request) {
	defID := s.reg.DefaultID()
	resp := NetworksResponse{Networks: []NetworkInfo{}}
	for _, id := range s.reg.IDs() {
		nw, ok := s.reg.Get(id)
		if !ok {
			continue
		}
		conns, version := nw.state.Engine().ReadView()
		resp.Networks = append(resp.Networks, NetworkInfo{
			ID:              id,
			Default:         id == defID,
			Admitted:        len(conns),
			Shards:          nw.state.Shards(),
			SnapshotVersion: version,
		})
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleAnalyze(nw *Network, w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	name := req.Analyzer
	if name == "" {
		name = "integrated"
	}
	if req.TimeoutSeconds < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "timeout_seconds must be non-negative")
		return
	}
	analyzer, err := s.pick(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownAnalyzer, err.Error())
		return
	}
	net, err := netspec.FromSpec(&req.Network)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	digest, err := netspec.Digest(net)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	key := analyzer.Name() + ":" + digest
	if res, ok := nw.cache.Get(key); ok {
		writeAnalyzeResponse(w, res, digest, true, false)
		return
	}
	var res *analysis.Result
	fail := failure{"analysis", http.StatusUnprocessableEntity, CodeInvalidSpec}
	degradedRes, ok := s.serve(nw, w, r, epAnalyze, req.TimeoutSeconds, fail, func(ctx context.Context) (err error) {
		res, err = analyzer.AnalyzeContext(ctx, net)
		return err
	})
	if !ok {
		return
	}
	if !degradedRes {
		// A degraded result depends on when the budget ran out: never cached.
		nw.cache.Put(key, res)
	}
	writeAnalyzeResponse(w, res, digest, false, degradedRes)
}

func writeAnalyzeResponse(w http.ResponseWriter, res *analysis.Result, digest string, cached, degraded bool) {
	resp := AnalyzeResponse{
		Algorithm: res.Algorithm,
		Digest:    digest,
		Cached:    cached,
		Bounds:    Bounds(res.Bounds),
		Backlogs:  Bounds(res.Backlogs),
		MaxBound:  Bound(res.MaxBound()),
		Degraded:  degraded,
	}
	if degraded {
		resp.BoundSource = degradedSource
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleMetrics(nw *Network, w http.ResponseWriter, r *http.Request) {
	setSnapshotVersion(w, nw.state.SnapshotVersion())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	nw.metrics.WriteText(w)
	writeCacheMetrics(w, nw.cache)
	writeAdmissionMetrics(w, nw.state)
	writeEngineMetrics(w, nw.state)
}

func (s *Server) handleHealthz(_ *Network, w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, healthzBody)
}
