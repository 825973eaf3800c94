package analysis

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"delaycalc/internal/topo"
)

// AnalyzeWithContext is a.AnalyzeContext(ctx, net). It stays only because
// the benchmark module spells it.
func AnalyzeWithContext(ctx context.Context, a Analyzer, net *topo.Network) (*Result, error) {
	return a.AnalyzeContext(ctx, net)
}

// canceled reports whether the context is done. It is the checkpoint
// predicate of the cancellation-aware paths; on context.Background() the
// select hits the default case, so an uncancelled analysis takes the
// exact same computation path as the context-free one.
func canceled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// budget is the soft deadline of an analysis, next to the context's hard
// one: when it runs out nothing is cancelled, the analysis finishes on what
// it already holds. A multi-server interval whose theta search has not
// started takes its decomposed sum (the ceiling runIntervalBound clamps by
// anyway), a search under way keeps its best candidate so far, and chains,
// propagation and replay complete as usual: sound, per connection between
// the undegraded bound and, at pairs, the decomposed one.
type budget struct {
	expired  func() bool
	degraded atomic.Bool
}

// spent is the soft checkpoint, read where a search is about to spend time:
// true once the budget has run out, recording that a bound was cut short. A
// nil budget (none attached) never runs out.
func (b *budget) spent() bool {
	if b == nil || !b.expired() {
		return false
	}
	b.degraded.Store(true)
	return true
}

type budgetKey struct{}

// WithBudget derives a context carrying a soft analysis budget. expired is
// polled at the search checkpoints, possibly from several goroutines at
// once, and must stay true once it has been: a wall-clock comparison in the
// serving layer (no timer, no goroutine), a flag or a countdown in tests. A
// budget that never expires leaves the analysis bit-identical to one without.
func WithBudget(ctx context.Context, expired func() bool) context.Context {
	return context.WithValue(ctx, budgetKey{}, &budget{expired: expired})
}

// budgetFrom extracts the budget, or nil when none is attached.
func budgetFrom(ctx context.Context) *budget {
	b, _ := ctx.Value(budgetKey{}).(*budget)
	return b
}

// Expired reports whether ctx's budget has run out, marking nothing: callers
// use it to avoid starting work that cannot be cut short (a baseline build).
func Expired(ctx context.Context) bool {
	b := budgetFrom(ctx)
	return b != nil && b.expired()
}

// Degraded reports whether a bound computed under ctx's budget was cut
// short: the results are sound but depend on when the budget ran out, so
// they must neither be cached nor seed a baseline.
func Degraded(ctx context.Context) bool {
	b := budgetFrom(ctx)
	return b != nil && b.degraded.Load()
}

// ctxErr wraps a context error in the package's error convention while
// keeping errors.Is(err, context.Canceled / DeadlineExceeded) working.
func ctxErr(err error) error {
	return fmt.Errorf("analysis: %w", err)
}

// Timings accumulates per-stage wall time of one analysis run, in
// nanoseconds. Stages are the integrated analyzer's phases: partitioning
// the network into chains, aggregate-envelope construction, the theta
// search over residual-curve candidates, and bound/envelope propagation.
// Units of one dependency level run concurrently, so the counters are
// atomic and a stage's total can exceed wall-clock time (it is CPU time
// across workers). ThetaPairs and ThetaEvaluated count the theta pairs
// the two-server searches faced and those they had to evaluate, in the
// search's order: the pair of least lower bound, found on the candidates'
// deviation floors, then index order (the rest fell to their lower bound,
// tested first on the floors); ThetaBranches and ThetaBranchesCut count
// the closed-form branches the longer searches faced (2^k - 1 per theta
// vector evaluated on k servers, k counted as 40 at most) and those the
// two prunings of the coordinate descent skipped. All four depend on the
// network alone. Attach a collector with WithTimings; analyzers that find
// none in the context skip all instrumentation, clock reads included.
type Timings struct {
	Partition atomic.Int64
	Aggregate atomic.Int64
	Theta     atomic.Int64
	Propagate atomic.Int64

	ThetaPairs     atomic.Int64
	ThetaEvaluated atomic.Int64

	ThetaBranches    atomic.Int64
	ThetaBranchesCut atomic.Int64

	// thetaCandidates and thetaDeviations count the candidates the
	// two-server searches faced and those whose gate-stripped deviation
	// they computed; the floor ruled the rest out.
	thetaCandidates atomic.Int64
	thetaDeviations atomic.Int64
}

// StageSeconds returns the accumulated stage times in seconds, keyed by
// the stage names the serving layer exports as metric labels.
func (t *Timings) StageSeconds() map[string]float64 {
	return map[string]float64{
		"partition": time.Duration(t.Partition.Load()).Seconds(),
		"aggregate": time.Duration(t.Aggregate.Load()).Seconds(),
		"theta":     time.Duration(t.Theta.Load()).Seconds(),
		"propagate": time.Duration(t.Propagate.Load()).Seconds(),
	}
}

// now reads the clock for a stage's start, or returns the zero time
// without reading it when no collector is attached.
func (t *Timings) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe adds the time elapsed since start to one stage counter.
func (t *Timings) observe(dst *atomic.Int64, start time.Time) {
	dst.Add(int64(time.Since(start)))
}

type timingsKey struct{}

// WithTimings derives a context carrying a fresh stage-timing collector.
// Context-aware analyzers fill it as they run; read it after the analysis
// returns.
func WithTimings(ctx context.Context) (context.Context, *Timings) {
	t := &Timings{}
	return context.WithValue(ctx, timingsKey{}, t), t
}

// timingsFrom extracts the collector, or nil when none is attached.
func timingsFrom(ctx context.Context) *Timings {
	t, _ := ctx.Value(timingsKey{}).(*Timings)
	return t
}
