package main

// layers.go holds every call the traced run makes into internal/ beyond
// what the timed run needs. The timed benchmark talks to the program
// through /v2 HTTP, the service and topo constructors and the analysis
// analyzers only; the traced run additionally drives
//
//	service.State.ApplyBatch / TestBatch / ReadView   (replica 1: the engine, no HTTP)
//	analysis.Baseline Extend / Promote / Shrink        (replica 2: the analysis, no engine)
//	admission.AffectedSet, topo.Checker, netspec, minplus (direct probes)
//
// in lock-step with the HTTP daemon (replica 0), records one span per
// call, and requires the three replicas to agree on every decision and
// bound. A change that narrows or renames one of these surfaces edits
// this file alone.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/minplus"
	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

// replicas are the three copies of the admission state a traced round
// advances together.
type replicas struct {
	tr       *tracer
	rd       *roundData
	d        *daemon // replica 0: the daemon, over HTTP
	c        *client
	state    *service.State // replica 1: a twin engine, called directly
	servers  []server.Server
	index    map[string]int
	analyzer analysis.Incremental
	shards   []*shardTwin // replica 2: one analysis baseline per engine shard
	owner    map[int]int  // fabric server -> shard, from the prefilled routes
	home     map[string]int
	req      int
	// listAt is the offset of the listing walk, mirrored on the twin.
	listAt int
}

// shardTwin mirrors what one engine shard holds: its connections in
// commit order, their baseline and the route checker.
type shardTwin struct {
	conns []topo.Connection
	base  *analysis.Baseline
	chk   *topo.Checker
}

func (sh *shardTwin) network(servers []server.Server, extra ...topo.Connection) *topo.Network {
	conns := append(append([]topo.Connection(nil), sh.conns...), extra...)
	return &topo.Network{Servers: servers, Connections: conns}
}

func newReplicas(tr *tracer, d *daemon, servers []server.Server, analyzer analysis.Analyzer, shards int) (*replicas, error) {
	inc, ok := analyzer.(analysis.Incremental)
	if !ok {
		return nil, fmt.Errorf("analyzer %s has no incremental baseline to twin", analyzer.Name())
	}
	state, err := service.NewStateShards(servers, analyzer, shards)
	if err != nil {
		return nil, err
	}
	index, err := netspec.ServerIndex(servers)
	if err != nil {
		return nil, err
	}
	return &replicas{tr: tr, d: d, c: newClient(d.base), state: state, servers: servers, index: index,
		analyzer: inc, home: map[string]int{}}, nil
}

// mismatch files a disagreement between replicas as a failed check.
func (r *replicas) mismatch(format string, args ...any) {
	r.rd.failCheck("replicas disagree: "+format, args...)
}

// prefill applies a set-up envelope to the twin engine and compares its
// decisions with the daemon's.
func (r *replicas) prefill(specs []netspec.ConnectionSpec, daemon []service.BatchOpResult) error {
	ops := make([]admission.Op, len(specs))
	for i := range specs {
		cand, err := netspec.ConnectionFromSpec(&specs[i], r.index)
		if err != nil {
			return err
		}
		ops[i] = admission.Op{Kind: admission.OpAdmit, Candidate: cand}
	}
	br, err := r.state.ApplyBatch(context.Background(), ops)
	if err != nil {
		return err
	}
	for i, res := range br.Results {
		if res.Decision.Admitted != (daemon[i].Status == service.BatchStatusAdmitted) {
			return fmt.Errorf("prefill: twin engine and daemon disagree on %s", specs[i].Name)
		}
	}
	return nil
}

// warm materialises the twin engine's baselines and builds the analysis
// twin from what each engine shard holds.
func (r *replicas) warm() error {
	if err := r.state.WarmBaseline(); err != nil {
		return err
	}
	r.owner = map[int]int{}
	eng := r.state.Engine()
	for i := 0; i < eng.Shards(); i++ {
		sh := &shardTwin{conns: eng.Shard(i).Admitted()}
		net := sh.network(r.servers)
		var err error
		r.tr.timed(0, 0, "analysis", "new_baseline", func() { sh.base, err = r.analyzer.NewBaseline(net) })
		if err != nil {
			return err
		}
		if sh.chk, err = topo.NewChecker(net); err != nil {
			return err
		}
		for _, c := range sh.conns {
			r.home[c.Name] = i
			for _, s := range c.Path {
				r.owner[s] = i
			}
		}
		r.shards = append(r.shards, sh)
	}
	return nil
}

// shardOf finds the shard a candidate's route belongs to.
func (r *replicas) shardOf(cand topo.Connection) (int, error) {
	if len(r.shards) == 1 {
		return 0, nil
	}
	for _, s := range cand.Path {
		if i, ok := r.owner[s]; ok {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no prefilled route shares a server with %s: cannot tell which shard it lands on", cand.Name)
}

// decide is the admission rule on an analysed trial: every deadline holds.
func decide(trial *topo.Network, bounds []float64) bool {
	for i, c := range trial.Connections {
		if c.Deadline > 0 && !(bounds[i] <= c.Deadline) {
			return false
		}
	}
	return true
}

// twinAdmit runs the admission test of cand on the analysis twin and, on
// a live admit it accepts, promotes the extended baseline. It returns the
// decision and the trial's analysis (nil when the trial was refused before
// any analysis).
func (r *replicas) twinAdmit(parent int, cand topo.Connection, commit bool) (bool, *analysis.Result, error) {
	i, err := r.shardOf(cand)
	if err != nil {
		return false, nil, err
	}
	sh := r.shards[i]
	trial := sh.network(r.servers, cand)
	r.tr.timed(r.req, 0, "topo", "validate_extend", func() { err = sh.chk.ValidateExtend(trial) })
	if err != nil {
		return false, nil, err
	}
	r.tr.timed(r.req, 0, "admission", "affected_set", func() {
		admission.AffectedSet(len(r.servers), sh.conns, cand)
	})
	if !trial.Stable() {
		return false, nil, nil
	}
	var ext *analysis.Extension
	r.tr.timed(r.req, parent, "analysis", "extend", func() { ext, err = sh.base.ExtendContext(context.Background(), cand) })
	if err != nil {
		return false, nil, err
	}
	st := ext.Stats
	r.rd.sample("analysis.replayed_units_per_op", float64(st.ReplayedUnits))
	r.rd.sample("analysis.recomputed_units_per_op", float64(st.RecomputedUnits))
	r.rd.sample("analysis.replay_ratio", ratio(float64(st.ReplayedUnits), float64(st.ReplayedUnits+st.RecomputedUnits)))
	r.rd.sample("analysis.affected_per_op", float64(st.Affected))
	res := ext.Result()
	ok := decide(trial, res.Bounds)
	if ok && commit {
		sh.base = ext.Promote()
		sh.chk = sh.chk.Extend(trial)
		sh.conns = trial.Connections
		r.home[cand.Name] = i
	}
	return ok, res, nil
}

// quiesce waits for the baseline rebuilds that compacted releases started
// in the background of the daemon and of the engine twin. Left running,
// each would compete with the other replicas' next calls for the two cores
// and show up in their spans; the price is that the traced run does not
// see a request wait for, or run beside, a rebuild, as the timed run does.
func (r *replicas) quiesce() error {
	if err := r.d.state.WarmBaseline(); err != nil {
		return err
	}
	return r.state.WarmBaseline()
}

// twinRelease removes name from the analysis twin: by shrinking the
// baseline when the engine twin released incrementally, by a rebuild
// (which the engine does off the request path) when it compacted.
func (r *replicas) twinRelease(parent int, name string, incremental bool) error {
	i, ok := r.home[name]
	if !ok {
		return fmt.Errorf("release of %s, which the analysis twin does not hold", name)
	}
	sh := r.shards[i]
	idx := -1
	for k, c := range sh.conns {
		if c.Name == name {
			idx = k
			break
		}
	}
	removed := sh.conns[idx]
	survivors := append(append([]topo.Connection(nil), sh.conns[:idx]...), sh.conns[idx+1:]...)
	r.tr.timed(r.req, 0, "admission", "affected_set", func() {
		admission.AffectedSet(len(r.servers), survivors, removed)
	})
	var err error
	if incremental {
		var ext *analysis.Extension
		r.tr.timed(r.req, parent, "analysis", "shrink", func() { ext, err = sh.base.ShrinkContext(context.Background(), idx) })
		if err == nil {
			sh.base = ext.Promote()
		}
	} else {
		net := &topo.Network{Servers: r.servers, Connections: survivors}
		r.tr.timed(r.req, 0, "analysis", "new_baseline", func() { sh.base, err = r.analyzer.NewBaseline(net) })
	}
	if err != nil {
		return err
	}
	sh.chk = sh.chk.Shrink(removed)
	sh.conns = survivors
	delete(r.home, name)
	return nil
}

// wireAdmit is the part of an admit answer the replicas are compared on.
type wireAdmit struct {
	Admitted bool       `json:"admitted"`
	Bounds   []*float64 `json:"bounds"`
}

// sameBounds compares wire bounds with computed ones, bit for bit.
func sameBounds(wire []*float64, want []float64) bool {
	if len(wire) != len(want) {
		return false
	}
	for i := range wire {
		if !sameBound(wire[i], want[i]) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// conn converts a generated spec as the service layer does, as a probe.
func (r *replicas) conn(spec *netspec.ConnectionSpec) (topo.Connection, error) {
	var cand topo.Connection
	var err error
	r.tr.timed(r.req, 0, "netspec", "conn_from_spec", func() { cand, err = netspec.ConnectionFromSpec(spec, r.index) })
	return cand, err
}

// admit applies one single admission (or, with dryRun, one test) to the
// three replicas and returns the daemon's decision.
func (r *replicas) admit(spec netspec.ConnectionSpec, dryRun bool) (admitted, ok bool, err error) {
	r.req++
	class := "admit"
	if dryRun {
		class = "test"
	}
	cand, err := r.conn(&spec)
	if err != nil {
		return false, false, err
	}
	var wire wireAdmit
	var data []byte
	var herr error
	svc, _ := r.tr.timed(r.req, 0, "service", "http."+class, func() {
		data, herr = r.c.post(apiPrefix+"/connections", service.AdmitRequest{Connection: spec, DryRun: dryRun})
	})
	if herr != nil || decode(data, &wire) != nil {
		return false, false, nil
	}
	var dec admission.Decision
	adm, took := r.tr.timed(r.req, svc, "admission", "engine."+class, func() {
		if dryRun {
			var res []admission.OpResult
			if res, err = r.state.TestBatch(context.Background(), []topo.Connection{cand}); err == nil {
				dec, err = res[0].Decision, res[0].Err
			}
			return
		}
		var br *admission.BatchResult
		if br, err = r.state.ApplyBatch(context.Background(), []admission.Op{{Kind: admission.OpAdmit, Candidate: cand}}); err == nil {
			dec, err = br.Results[0].Decision, br.Results[0].Err
		}
	})
	if err != nil {
		return false, false, err
	}
	if dec.Admitted {
		r.rd.sample("admission.accept_us", float64(took.Nanoseconds())/1e3)
	} else {
		r.rd.sample("admission.reject_us", float64(took.Nanoseconds())/1e3)
	}
	twinOK, res, err := r.twinAdmit(adm, cand, !dryRun)
	if err != nil {
		return false, false, err
	}
	var bounds []float64
	if res != nil {
		bounds = res.Bounds
	}
	if wire.Admitted != dec.Admitted || dec.Admitted != twinOK {
		r.mismatch("%s %s: daemon %v, engine %v, analysis %v", class, spec.Name, wire.Admitted, dec.Admitted, twinOK)
	}
	if !sameBounds(wire.Bounds, dec.Bounds) || !sameFloats(dec.Bounds, bounds) {
		r.mismatch("%s %s: bounds differ between daemon, engine and analysis", class, spec.Name)
	}
	return wire.Admitted, true, nil
}

// release applies one single release to the three replicas.
func (r *replicas) release(name string) (ok bool, err error) {
	r.req++
	var status int
	var herr error
	svc, _ := r.tr.timed(r.req, 0, "service", "http.release", func() {
		status, _, herr = r.c.call(http.MethodDelete, apiPrefix+"/connections/"+name, nil)
	})
	if herr != nil || status != http.StatusOK {
		return false, nil
	}
	var br *admission.BatchResult
	adm, _ := r.tr.timed(r.req, svc, "admission", "engine.release", func() {
		br, err = r.state.ApplyBatch(context.Background(), []admission.Op{{Kind: admission.OpRelease, Name: name}})
	})
	if err != nil {
		return false, err
	}
	if !br.Results[0].Released {
		r.mismatch("release %s: daemon released it, the engine twin does not hold it", name)
		return true, nil
	}
	if err := r.twinRelease(adm, name, br.Results[0].Release.Incremental); err != nil {
		return false, err
	}
	return true, r.quiesce()
}

// batch applies one envelope to the three replicas.
func (r *replicas) batch(op churnOp, admitted []bool) (ok bool, err error) {
	r.req++
	var ops []admission.Op
	for _, name := range op.releases {
		ops = append(ops, admission.Op{Kind: admission.OpRelease, Name: name})
	}
	cands := make([]topo.Connection, len(op.admits))
	for i := range op.admits {
		if cands[i], err = r.conn(&op.admits[i]); err != nil {
			return false, err
		}
		ops = append(ops, admission.Op{Kind: admission.OpAdmit, Candidate: cands[i]})
	}
	var wire service.BatchResponse
	var data []byte
	var herr error
	svc, _ := r.tr.timed(r.req, 0, "service", "http.batch", func() {
		data, herr = r.c.post(apiPrefix+"/batch", batchRequest(op))
	})
	if herr != nil || decode(data, &wire) != nil || !readEnvelope(op, &wire, admitted) {
		return false, nil
	}
	var br *admission.BatchResult
	adm, _ := r.tr.timed(r.req, svc, "admission", "engine.batch", func() {
		br, err = r.state.ApplyBatch(context.Background(), ops)
	})
	if err != nil {
		return false, err
	}
	for i, name := range op.releases {
		if !br.Results[i].Released {
			r.mismatch("envelope release %s: the engine twin does not hold it", name)
			continue
		}
		if err := r.twinRelease(adm, name, br.Results[i].Release.Incremental); err != nil {
			return false, err
		}
	}
	for i, cand := range cands {
		dec := br.Results[len(op.releases)+i].Decision
		twinOK, res, err := r.twinAdmit(adm, cand, true)
		if err != nil {
			return false, err
		}
		if admitted[i] != dec.Admitted || dec.Admitted != twinOK {
			r.mismatch("envelope admit %s: daemon %v, engine %v, analysis %v", cand.Name, admitted[i], dec.Admitted, twinOK)
		}
		got := wire.Results[len(op.releases)+i].Decision
		if got == nil || math.Float64bits(float64(got.MaxBound)) != math.Float64bits(dec.MaxBound()) ||
			(res != nil && math.Float64bits(res.MaxBound()) != math.Float64bits(dec.MaxBound())) {
			r.mismatch("envelope admit %s: max bound differs between daemon, engine and analysis", cand.Name)
		}
	}
	return true, r.quiesce()
}

// list fetches one page of the listing walk from the daemon and reads the
// same view from the twin engine.
func (r *replicas) list(st *readState) (ok bool) {
	r.req++
	path := fmt.Sprintf("%s/connections?limit=%d", apiPrefix, readPage)
	if st.cursor != "" {
		path += "&cursor=" + st.cursor
	}
	var status int
	var data []byte
	var herr error
	svc, _ := r.tr.timed(r.req, 0, "service", "http.list", func() { status, data, herr = r.c.call(http.MethodGet, path, nil) })
	var conns []topo.Connection
	r.tr.timed(r.req, svc, "admission", "engine.list", func() { conns, _, _ = r.state.ReadView() })
	switch {
	case herr != nil:
		return false
	case status == http.StatusGone:
		st.cursor, r.listAt = "", 0
		st.restarts++
		return true
	case status != http.StatusOK:
		return false
	}
	var page service.ListResponse
	if decode(data, &page) != nil {
		return false
	}
	want := conns[min(r.listAt, len(conns)):]
	want = want[:min(readPage, len(want))]
	same := len(page.Connections) == len(want) && page.Count == len(conns)
	for i := 0; same && i < len(want); i++ {
		same = page.Connections[i].Name == want[i].Name
	}
	if !same {
		r.mismatch("listing page at offset %d differs between daemon and engine", r.listAt)
	}
	st.cursor, r.listAt = page.NextCursor, r.listAt+len(want)
	if page.NextCursor == "" {
		r.listAt = 0
	}
	return true
}

// analyze posts one analyze request and, on a cache miss, repeats the
// analysis directly and compares the bounds.
func (r *replicas) analyze(body []byte) (ok bool, err error) {
	r.req++
	var status int
	var data []byte
	var herr error
	start := time.Now()
	status, data, herr = r.c.call(http.MethodPost, apiPrefix+"/analyze", body)
	took := time.Since(start)
	var resp service.AnalyzeResponse
	if herr != nil || status != http.StatusOK || decode(data, &resp) != nil {
		return false, nil
	}
	if resp.Cached {
		r.tr.add(r.req, 0, "service", "http.analyze_hit", start, took)
		return true, nil
	}
	svc := r.tr.add(r.req, 0, "service", "http.analyze_miss", start, took)
	var req service.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return false, err
	}
	net, err := netspec.FromSpec(&req.Network)
	if err != nil {
		return false, err
	}
	var res *analysis.Result
	r.tr.timed(r.req, svc, "analysis", "analyze_spec", func() {
		res, err = analysis.AnalyzeWithContext(context.Background(), analysis.Integrated{}, net)
	})
	if err != nil {
		return false, err
	}
	wire := make([]float64, len(resp.Bounds))
	for i, b := range resp.Bounds {
		wire[i] = float64(b)
	}
	if !sameFloats(wire, res.Bounds) {
		r.mismatch("analyze: daemon and direct analysis differ")
	}
	return true, nil
}

// floor times the cheapest round trip the daemon answers.
func (r *replicas) floor() {
	r.tr.timed(r.req, 0, "service", "http.healthz", func() { _ = r.c.getJSON("/v2/healthz", &struct{}{}) })
}

// agree compares the final admitted sets of the three replicas by name.
func (r *replicas) agree() error {
	var list service.ListResponse
	if err := r.c.getJSON(apiPrefix+"/connections", &list); err != nil {
		return err
	}
	names := func(n int, at func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = at(i)
		}
		sort.Strings(out)
		return out
	}
	daemon := names(len(list.Connections), func(i int) string { return list.Connections[i].Name })
	conns, _, _ := r.state.ReadView()
	engine := names(len(conns), func(i int) string { return conns[i].Name })
	var held []topo.Connection
	for _, sh := range r.shards {
		held = append(held, sh.conns...)
	}
	twin := names(len(held), func(i int) string { return held[i].Name })
	if fmt.Sprint(daemon) != fmt.Sprint(engine) || fmt.Sprint(engine) != fmt.Sprint(twin) {
		r.mismatch("final admitted sets differ: daemon %d, engine %d, analysis %d connections", len(daemon), len(engine), len(twin))
	}
	return nil
}

// apply sends one churn request through the replicas.
func (r *replicas) apply(op churnOp, admitted []bool) (bool, error) {
	if r.req%10 == 0 {
		r.floor()
	}
	switch op.class {
	case "admit":
		a, ok, err := r.admit(op.admits[0], false)
		admitted[0] = a
		return ok, err
	case "release":
		return r.release(op.releases[0])
	default:
		return r.batch(op, admitted)
	}
}

// churnRound is the traced form of a churn round: the clients' seeded
// sequences, interleaved one request at a time on one goroutine.
func (r *replicas) churnRound(rd *roundData, clients []*churnClient, warmup, requests int, setupStart time.Time) error {
	r.rd = rd
	step := func(cc *churnClient, timed bool) error {
		op := cc.stream.next()
		admitted := make([]bool, len(op.admits))
		ok, err := r.apply(op, admitted)
		if err != nil {
			return err
		}
		cc.stream.settle(op, admitted)
		if timed {
			rd.attempted++
			if !ok {
				rd.failed++
			}
		}
		return nil
	}
	for i := 0; i < warmup; i++ {
		for _, cc := range clients {
			if err := step(cc, false); err != nil {
				return err
			}
		}
	}
	rd.setup = time.Since(setupStart)
	w := openWindow()
	for i := 0; i < requests; i++ {
		for _, cc := range clients {
			if err := step(cc, true); err != nil {
				return err
			}
		}
	}
	w.close(rd)
	rd.liveHeap()
	rd.opHash = sequenceHash(clients)
	return r.agree()
}

// readRound is the traced form of a serve-read round: the scheduled
// requests in order, one at a time, without waiting for their due times.
func (r *replicas) readRound(rd *roundData, st *readState, ops []readOp, setupStart time.Time) error {
	r.rd = rd
	rd.setup = time.Since(setupStart)
	w := openWindow()
	for i := range ops {
		op := &ops[i]
		if r.req%10 == 0 {
			r.floor()
		}
		var ok bool
		var err error
		switch op.class {
		case "test":
			_, ok, err = r.admit(op.cand, true)
		case "list":
			ok = r.list(st)
		case "analyze":
			ok, err = r.analyze(op.body)
		default:
			if op.admit {
				var a bool
				if a, ok, err = r.admit(op.cand, false); a {
					st.pool = append(st.pool, op.cand.Name)
				}
			} else {
				name := st.pool[0]
				st.pool = st.pool[1:]
				ok, err = r.release(name)
			}
		}
		if err != nil {
			return err
		}
		rd.attempted++
		if !ok {
			rd.failed++
		}
	}
	w.close(rd)
	rd.liveHeap()
	return r.agree()
}

// tracedAnalyzePass is one analyze-full pass with every analysis a span
// and the integrated analyzer's stage timings collected.
func tracedAnalyzePass(tr *tracer, rd *roundData, set map[string]*topo.Network) (map[string]*analysis.Result, error) {
	results := make(map[string]*analysis.Result, len(analyzeItems))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx, tm := analysis.WithTimings(context.Background())
	for i, it := range analyzeItems {
		var res *analysis.Result
		var err error
		_, took := tr.timed(i+1, 0, "analysis", it.key, func() { res, err = analysis.AnalyzeWithContext(ctx, it.analyzer, set[it.net]) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.key, err)
		}
		rd.observe(it.key, took)
		rd.attempted++
		results[it.key] = res
	}
	runtime.ReadMemStats(&after)
	for stage, sec := range tm.StageSeconds() {
		rd.sample("analysis."+stage+"_ms", sec*1e3)
	}
	rd.sample("analysis.allocs_per_pass", float64(after.Mallocs-before.Mallocs))
	rd.sample("analysis.bytes_per_pass", float64(after.TotalAlloc-before.TotalAlloc))
	return results, nil
}

// probe times batches of reps calls of f and files the per-call time, in
// the unit that is ns nanoseconds long, under metric.
func probe(rd *roundData, metric string, ns float64, batches, reps int, f func()) {
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		rd.sample(metric, float64(time.Since(start).Nanoseconds())/float64(reps)/ns)
	}
}

// probeLayers runs the direct probes that do not depend on the workload:
// netspec on a k=8 fat-tree document, topo on the same networks the
// workloads build, and the minplus kernels on fixed curve sets.
func probeLayers(rd *roundData) error {
	ft8, err := topo.FatTree(8, 20, 0.55)
	if err != nil {
		return err
	}
	doc, err := netspec.Encode(ft8)
	if err != nil {
		return err
	}
	probe(rd, "netspec.encode_ms", 1e6, 5, 1, func() { _, _ = netspec.Encode(ft8) })
	probe(rd, "netspec.decode_ms", 1e6, 5, 1, func() { _, _ = netspec.Decode(doc) })
	probe(rd, "netspec.digest_us", 1e3, 5, 1, func() { _, _ = netspec.Digest(ft8) })

	probe(rd, "topo.fattree16_build_ms", 1e6, 5, 1, func() { _, _ = topo.FatTree(16, 100, 0.55) })
	probe(rd, "topo.toposort_ms", 1e6, 5, 1, func() { _, _ = ft8.TopologicalOrder() })
	probe(rd, "topo.conn_index_us", 1e3, 5, 1, func() { _ = ft8.ConnectionIndex() })
	probe(rd, "topo.checker_new_us", 1e3, 5, 1, func() { _, _ = topo.NewChecker(ft8) })
	probe(rd, "analysis.components_ms", 1e6, 5, 1, func() { _ = analysis.Components(ft8) })

	// The curve sets of the committed kernel benchmarks: 200 token buckets
	// (concave fast path), 64 general curves, 16 gated-convex curves.
	buckets := make([]minplus.Curve, 200)
	for i := range buckets {
		buckets[i] = minplus.TokenBucket(1+0.01*float64(i%13), 0.001*(1+float64(i%7)))
	}
	rng := rand.New(rand.NewSource(7))
	mixed := make([]minplus.Curve, 64)
	for i := range mixed {
		mixed[i] = randomCurve(rng)
	}
	gated := make([]minplus.Curve, 16)
	for i := range gated {
		gated[i] = randomGated(rng)
	}
	alpha := minplus.Sum(minplus.TokenBucketCapped(2, 0.3, 1), minplus.TokenBucket(1, 0.1))
	beta := minplus.RateLatency(0.9, 1.5)
	capped, rl := minplus.TokenBucketCapped(3, 0.25, 1), minplus.RateLatency(0.8, 2)
	n := 0
	kernels := []struct {
		metric string
		reps   int
		f      func()
	}{
		{"minplus.sumn_ns", 200, func() { minplus.SumN(buckets...) }},
		{"minplus.sumn_mixed_ns", 5, func() { minplus.SumN(mixed...) }},
		{"minplus.convolve_gated_ns", 100, func() { minplus.ConvolveGated(gated[n%16], gated[(n+7)%16]); n++ }},
		{"minplus.hdev_ns", 200, func() { minplus.HorizontalDeviation(alpha, beta) }},
		{"minplus.deconvolve_ns", 50, func() { _, _ = minplus.Deconvolve(capped, rl) }},
	}
	var before, after runtime.MemStats
	allocs := 0.0
	for _, k := range kernels {
		probe(rd, k.metric, 1, 15, k.reps, k.f)
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			k.f()
		}
		runtime.ReadMemStats(&after)
		allocs += float64(after.Mallocs-before.Mallocs) / 10
	}
	rd.sample("minplus.kernel_allocs", allocs)
	return nil
}

// randomCurve draws a general piecewise-linear curve on a coarse lattice:
// one to four segments, occasional jumps, a non-negative final slope.
func randomCurve(r *rand.Rand) minplus.Curve {
	grid := func(v float64) float64 { return math.Round(v*8) / 8 }
	pts := []minplus.Point{{X: 0, Y: 0}}
	x, y := 0.0, 0.0
	if r.Intn(3) == 0 {
		y = grid(r.Float64() * 5)
		pts = append(pts, minplus.Point{X: 0, Y: y})
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		x += grid(0.25 + r.Float64()*3)
		if r.Intn(4) == 0 {
			pts = append(pts, minplus.Point{X: x, Y: y})
		}
		y += grid(r.Float64() * 4)
		pts = append(pts, minplus.Point{X: x, Y: y})
	}
	return minplus.New(pts, grid(r.Float64()*3))
}

// randomGated draws a gated-convex curve: an optional gate and jump, up
// to three convex segments and a tail at least as steep as the last.
func randomGated(r *rand.Rand) minplus.Curve {
	grid := func(v float64) float64 { return math.Round(v*8) / 8 }
	var g minplus.GatedConvex
	if r.Intn(2) == 0 {
		g.Gate = grid(r.Float64() * 4)
	}
	if r.Intn(2) == 0 {
		g.Jump = grid(r.Float64() * 3)
	}
	slopes := make([]float64, r.Intn(4))
	for i := range slopes {
		slopes[i] = grid(r.Float64() * 2)
	}
	sort.Float64s(slopes)
	last := 0.0
	for _, s := range slopes {
		g.Segs = append(g.Segs, minplus.SlopeSeg{Len: grid(0.25 + r.Float64()*2), Slope: s})
		last = s
	}
	g.Tail = last + grid(r.Float64()*2)
	return g.Curve()
}
