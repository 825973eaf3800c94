package service

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// Request plumbing shared by every endpoint: instrumentation, the bounded
// analysis-slot queue, load shedding, and the soft-budget degradation
// policy.

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// metricsFor resolves the Metrics instance a request charges to: the
// addressed network's when the path carries a known {netid}, the default
// network's otherwise (global routes, unknown ids).
func (s *Server) metricsFor(r *http.Request) *Metrics {
	if id := r.PathValue("netid"); id != "" {
		if nw, ok := s.reg.Get(id); ok {
			return nw.metrics
		}
	}
	return s.reg.Default().metrics
}

// instrument wraps a handler with the request-scoped plumbing shared by
// every endpoint: body size limiting, a context deadline, in-flight and
// latency metrics under a stable endpoint label on the addressed
// network's accumulator, panic recovery, and a structured access log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m := s.metricsFor(r)
		m.RequestStarted()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rec, r.Body, s.maxBody)
		}
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic", "endpoint", endpoint, "panic", p,
					"stack", string(debug.Stack()))
				if rec.status == http.StatusOK {
					writeError(rec, http.StatusInternalServerError, CodeInternal, "internal error")
				}
			}
			elapsed := time.Since(start)
			m.RequestFinished(endpoint, rec.status, elapsed.Seconds())
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
		}()
		h(rec, r)
	}
}

// degradedSource is the bound_source of a degraded reply: some of its
// bounds are the decomposed (Cruz) sums of chain intervals whose theta
// search the soft budget cut. Those are valid and dominate the searched
// bound, so a degraded decision may reject a candidate the full analysis
// would have admitted but never the reverse.
var degradedSource = analysis.Decomposed{}.Name()

// shed rejects a request whose hard deadline passed (or that could not get
// an analysis slot in time) with the 503 envelope and a Retry-After hint.
func (s *Server) shed(nw *Network, w http.ResponseWriter, msg string) {
	nw.metrics.RequestShed()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, CodeTimeout, msg)
}

// acquireSlot takes one bounded-concurrency analysis slot, queueing (and
// exporting the queue depth on the network's metrics) until one frees or
// the request's hard deadline sheds it. Reports false when the context
// won. The slot pool is shared across networks — it bounds the process's
// concurrent analyses — but the queue gauge is per-network.
func (s *Server) acquireSlot(ctx context.Context, nw *Network) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	nw.metrics.QueueEntered()
	defer nw.metrics.QueueLeft()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// releaseSlot returns an analysis slot.
func (s *Server) releaseSlot() {
	if s.sem != nil {
		<-s.sem
	}
}

// withBudget arms the soft budget of one request on its context: the
// per-request override (seconds) when positive, the server default
// otherwise; a negative default disables degradation. It is a deadline the
// analysis polls (analysis.WithBudget): no timer, no goroutine.
func (s *Server) withBudget(ctx context.Context, override float64) context.Context {
	budget := s.softBudget
	if override > 0 {
		budget = time.Duration(override * float64(time.Second))
	}
	if budget <= 0 {
		return ctx
	}
	deadline := time.Now().Add(budget)
	return analysis.WithBudget(ctx, func() bool { return !time.Now().Before(deadline) })
}

// degraded reports whether the request's analysis ran into its soft budget,
// counting and logging it if so.
func (s *Server) degraded(ctx context.Context, nw *Network, endpoint string) bool {
	if !analysis.Degraded(ctx) {
		return false
	}
	nw.metrics.DegradedServed()
	s.log.Warn("soft budget expired: reply carries decomposed ceilings",
		"endpoint", endpoint, "network", nw.id)
	return true
}

// observeStages exports an analysis run's per-stage wall time and its
// theta-pair and closed-form branch counts to the network's metrics and the
// debug log. The log line's arguments are only built when debug is on:
// boxing them costs a dozen allocations per request.
func (s *Server) observeStages(ctx context.Context, nw *Network, endpoint string, tm *analysis.Timings) {
	stages := tm.StageSeconds()
	for st, sec := range stages {
		nw.metrics.ObserveStage(st, sec)
	}
	pairs, evaluated := tm.ThetaPairs.Load(), tm.ThetaEvaluated.Load()
	nw.metrics.observeThetaPairs(pairs, evaluated)
	branches, cut := tm.ThetaBranches.Load(), tm.ThetaBranchesCut.Load()
	nw.metrics.observeThetaBranches(branches, cut)
	if !s.log.Enabled(ctx, slog.LevelDebug) {
		return
	}
	s.log.DebugContext(ctx, "analysis stages",
		"endpoint", endpoint,
		"network", nw.id,
		"partition_s", stages["partition"],
		"aggregate_s", stages["aggregate"],
		"theta_s", stages["theta"],
		"propagate_s", stages["propagate"],
		"theta_pairs", pairs,
		"theta_evaluated", evaluated,
		"theta_branches", branches,
		"theta_branches_cut", cut,
	)
}

// failure is how serve answers a job that fails: a cancelled job sheds,
// naming what did not finish; any other error answers status with code.
type failure struct {
	what   string
	status int
	code   string
}

// serve runs job, the analysis work of one request — every admit, release,
// dry-run test and batch envelope, and every stateless analysis — under the
// one shed policy: a request whose hard deadline has passed, that gets no
// analysis slot before it, or whose job is cut off by it answers 503. The
// job runs once, on the handler goroutine, under the soft budget and a
// stage-timing collector; degraded reports that the budget ran out and
// some bounds are decomposed ceilings. Any other error answers as fail
// says. ok false means the error response has been written.
func (s *Server) serve(nw *Network, w http.ResponseWriter, r *http.Request, endpoint string, override float64, fail failure, job func(ctx context.Context) error) (degraded, ok bool) {
	ctx := r.Context()
	if ctx.Err() != nil {
		s.shed(nw, w, "request deadline exceeded")
		return false, false
	}
	if !s.acquireSlot(ctx, nw) {
		s.shed(nw, w, "no analysis slot free before the request deadline")
		return false, false
	}
	defer s.releaseSlot()
	ctx, tm := analysis.WithTimings(s.withBudget(ctx, override))
	err := job(ctx)
	if err == nil {
		degraded = s.degraded(ctx, nw, endpoint)
	}
	s.observeStages(ctx, nw, endpoint, tm)
	switch {
	case err == nil:
		return degraded, true
	case admission.IsCanceled(err):
		s.shed(nw, w, fail.what+" did not finish before the request deadline")
	default:
		writeError(w, fail.status, fail.code, err.Error())
	}
	return false, false
}

// serveEnvelope serves one envelope. Dry-run envelopes (all ops are admits)
// evaluate every candidate against one pinned snapshot per shard; live
// envelopes apply with one commit per shard touched, budget or no budget.
func (s *Server) serveEnvelope(nw *Network, w http.ResponseWriter, r *http.Request, endpoint string, dryRun bool, ops []admission.Op, override float64) (results []admission.OpResult, degraded, ok bool) {
	fail := failure{"admission", http.StatusInternalServerError, CodeInternal}
	degraded, ok = s.serve(nw, w, r, endpoint, override, fail, func(ctx context.Context) (err error) {
		if dryRun {
			cands := make([]topo.Connection, len(ops))
			for i, op := range ops {
				cands[i] = op.Candidate
			}
			results, err = nw.state.TestBatch(ctx, cands)
			return err
		}
		br, err := nw.state.ApplyBatch(ctx, ops)
		if br != nil {
			results = br.Results
		}
		return err
	})
	return results, degraded, ok
}
