package falsify

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/sim"
)

// Options tunes the falsification search.
type Options struct {
	// Seed makes the whole run deterministic: each (scenario, analyzer)
	// pair derives its own RNG from Seed and its identity, so results do
	// not depend on worker scheduling.
	Seed int64
	// Restarts is the number of hill-climbing starts per pair; the first
	// start is always the all-greedy zero-phase baseline (the pattern
	// the analysis is built around), the second the staggered start
	// (staggeredStart), the rest are random adversaries.
	Restarts int
	// Iterations is the number of greedy mutation steps per restart.
	Iterations int
	// PacketSizes are the candidate packet sizes the search may try;
	// the first is the starting size. Smaller packets approximate the
	// fluid model more closely (less slack is subtracted) but simulate
	// slower.
	PacketSizes []float64
	// Parallelism caps concurrent (scenario, analyzer) units; 0 means
	// GOMAXPROCS. Parallel scheduling never changes the report.
	Parallelism int
	// BoundScale is a test-only hook that scales every analytic bound
	// before comparison. Production runs leave it 0 (treated as 1); a
	// test sets it below 1 to corrupt the bounds and prove the harness
	// actually detects and reports contradictions.
	BoundScale float64
}

func (o Options) withDefaults() Options {
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	if o.Iterations <= 0 {
		o.Iterations = 40
	}
	if len(o.PacketSizes) == 0 {
		o.PacketSizes = []float64{0.05, 0.02}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BoundScale <= 0 {
		o.BoundScale = 1
	}
	return o
}

// Search runs the falsification matrix: every scenario against every
// analyzer, in parallel across pairs, each pair a deterministic
// hill-climbing search. Cancellation and deadlines are honored between
// trials and inside the analyzers (via analysis.ContextAnalyzer), so the
// run degrades to a truncated — still valid, still deterministic for a
// fixed budget — report under CI time limits rather than overshooting.
func Search(ctx context.Context, scenarios []Scenario, analyzers []analysis.Analyzer, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("falsify: empty scenario matrix")
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("falsify: no analyzers to attack")
	}
	type unit struct {
		sc Scenario
		an analysis.Analyzer
	}
	var units []unit
	for _, sc := range scenarios {
		for _, an := range analyzers {
			units = append(units, unit{sc, an})
		}
	}
	report := &Report{Seed: opts.Seed, Restarts: opts.Restarts, Iterations: opts.Iterations}
	results := make([]*Result, len(units))
	contras := make([]*Contradiction, len(units))
	errs := make([]error, len(units))

	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Parallelism)
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			u := units[i]
			results[i], contras[i], errs[i] = searchUnit(ctx, u.sc, u.an, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("falsify: %s/%s: %w", units[i].sc.Name, units[i].an.Name(), err)
		}
	}
	for i := range results {
		report.Results = append(report.Results, *results[i])
		if contras[i] != nil {
			report.Contradictions = append(report.Contradictions, *contras[i])
		}
	}
	report.rank()
	return report, nil
}

// unitSeed derives the per-pair RNG seed from the run seed and the pair's
// identity, so adding or filtering scenarios never shifts another pair's
// random stream.
func unitSeed(seed int64, scenario, analyzer string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s", scenario, analyzer)
	return seed ^ int64(h.Sum64())
}

// trialOutcome is one simulated trial scored against the bounds.
type trialOutcome struct {
	objective float64 // max per-connection tightness ratio
	violation bool    // some connection crossed bound+slack
}

// searchUnit runs the hill-climbing search for one (scenario, analyzer)
// pair and returns its result plus at most one contradiction.
func searchUnit(ctx context.Context, sc Scenario, an analysis.Analyzer, opts Options) (*Result, *Contradiction, error) {
	res := &Result{Scenario: sc.Name, Analyzer: an.Name(), Conn: -1}
	ares, err := analysis.AnalyzeWithContext(ctx, an, sc.Net)
	if err != nil {
		if ctx.Err() != nil {
			res.Truncated = true
			res.Unbounded = true
			return res, nil, nil
		}
		return nil, nil, err
	}
	bounds := make([]float64, len(ares.Bounds))
	attackable := false
	for i, b := range ares.Bounds {
		bounds[i] = b * opts.BoundScale
		if !math.IsInf(b, 1) && b > 0 {
			attackable = true
		}
	}
	if !attackable {
		res.Unbounded = true
		return res, nil, nil
	}

	rng := rand.New(rand.NewSource(unitSeed(opts.Seed, sc.Name, an.Name())))
	horizon := sim.WorstCaseHorizon(sc.Net) + 2*sc.Spread

	// perConn accumulates, per connection, the best the adversary has
	// managed across every trial (not just accepted hill-climb states).
	perConn := make([]ConnTightness, len(sc.Net.Connections))
	for c := range perConn {
		perConn[c] = ConnTightness{
			Conn:  c,
			Name:  sc.Net.Connections[c].Name,
			Hops:  len(sc.Net.Connections[c].Path),
			Bound: bounds[c],
		}
	}

	evaluate := func(p TrialParams) (trialOutcome, error) {
		sres, err := sim.Run(sc.Net, sim.Config{
			PacketSize: p.PacketSize,
			Horizon:    p.Horizon,
			Adversary:  &p.Adversary,
		})
		if err != nil {
			return trialOutcome{}, err
		}
		var out trialOutcome
		for c := range sc.Net.Connections {
			b := bounds[c]
			if math.IsInf(b, 1) || b <= 0 {
				continue
			}
			obs := sres.Stats[c].MaxDelay
			slack := sim.QuantizationSlack(sc.Net, c, p.PacketSize)
			r := tightness(obs, slack, b)
			if r > out.objective {
				out.objective = r
			}
			if r > perConn[c].Tightness || (perConn[c].Observed == 0 && obs > 0) {
				perConn[c].Observed = obs
				perConn[c].Slack = slack
				perConn[c].Tightness = r
			}
			if obs > b+slack {
				out.violation = true
			}
		}
		res.Trials++
		return out, nil
	}

	bestObjective := -1.0
	var bestParams TrialParams
	var contra *Contradiction

	// consider scores a trial, keeps the globally best parameters, and
	// converts the first conforming violation into a contradiction.
	consider := func(p TrialParams, out trialOutcome) {
		if out.objective > bestObjective {
			bestObjective = out.objective
			bestParams = cloneParams(p)
		}
		if out.violation && contra == nil {
			if c := buildContradiction(sc, an.Name(), bounds, p, opts.Seed); c != nil {
				contra = c
			}
		}
	}

	zero := TrialParams{
		PacketSize: opts.PacketSizes[0],
		Horizon:    horizon,
		Adversary:  sim.Adversary{Seed: opts.Seed, Controls: make([]sim.SourceControl, len(sc.Net.Connections))},
	}
restarts:
	for r := 0; r < opts.Restarts && contra == nil; r++ {
		var cur TrialParams
		switch r {
		case 0:
			cur = cloneParams(zero)
		case 1:
			cur = zero
			cur.Adversary.Controls = staggeredStart(sc)
		default:
			advSeed := rng.Int63()
			cur = TrialParams{
				PacketSize: opts.PacketSizes[rng.Intn(len(opts.PacketSizes))],
				Horizon:    horizon,
				Adversary:  *sim.RandomAdversary(sc.Net, advSeed, sc.Spread),
			}
		}
		if ctx.Err() != nil {
			res.Truncated = true
			break
		}
		curOut, err := evaluate(cur)
		if err != nil {
			return nil, nil, err
		}
		consider(cur, curOut)
		for it := 0; it < opts.Iterations && contra == nil; it++ {
			if ctx.Err() != nil {
				res.Truncated = true
				break restarts
			}
			cand := mutate(rng, cur, sc.Spread, opts.PacketSizes)
			candOut, err := evaluate(cand)
			if err != nil {
				return nil, nil, err
			}
			consider(cand, candOut)
			if candOut.objective > curOut.objective {
				cur, curOut = cand, candOut
			}
		}
	}

	worst := -1
	for c := range perConn {
		b := bounds[c]
		if math.IsInf(b, 1) || b <= 0 {
			continue
		}
		res.PerConn = append(res.PerConn, perConn[c])
		if worst < 0 || perConn[c].Tightness > perConn[worst].Tightness {
			worst = c
		}
	}
	if worst >= 0 && res.Trials > 0 {
		res.Conn = worst
		res.ConnName = perConn[worst].Name
		res.Bound = perConn[worst].Bound
		res.Observed = perConn[worst].Observed
		res.Slack = perConn[worst].Slack
		res.Tightness = perConn[worst].Tightness
		res.Best = bestParams
	} else {
		res.Unbounded = true
		res.PerConn = nil
	}
	return res, contra, nil
}

// staggeredStart is the second, deterministic start: it tags the longest
// route (the first one on a tie) and releases every other source when the
// tagged traffic's worst case reaches the first server the two share — at
// the sum of the tagged connection's Decomposed stage delays before that
// server — so each cross burst lands on the tagged connection's most
// delayed bits instead of leaving before they arrive. Sources that share no
// server with the tagged route, and every source when the Decomposed bound
// is not finite, start greedy; phases are clamped to the scenario's spread.
func staggeredStart(sc Scenario) []sim.SourceControl {
	conns := sc.Net.Connections
	ctl := make([]sim.SourceControl, len(conns))
	tag := 0
	for i, c := range conns {
		if len(c.Path) > len(conns[tag].Path) {
			tag = i
		}
	}
	res, err := analysis.Decomposed{}.Analyze(sc.Net)
	if err != nil || math.IsInf(res.Bounds[tag], 1) {
		return ctl
	}
	stages := res.Stages[tag] // one per hop of the tagged route
	for i, c := range conns {
		if i == tag {
			continue
		}
		at := 0.0
		for h, s := range conns[tag].Path {
			if slices.Contains(c.Path, s) {
				ctl[i].Phase = clamp(at, 0, sc.Spread)
				break
			}
			at += stages[h].Delay
		}
	}
	return ctl
}

// cloneParams deep-copies trial parameters so hill-climbing mutations
// never alias an accepted state.
func cloneParams(p TrialParams) TrialParams {
	p.Adversary.Controls = append([]sim.SourceControl(nil), p.Adversary.Controls...)
	return p
}

// mutate proposes one neighbor: usually a single-source knob perturbation
// (phase or burst-placement nudge, pacing toggle), occasionally a packet
// size switch. Offsets are clamped to [0, spread].
func mutate(rng *rand.Rand, p TrialParams, spread float64, packetSizes []float64) TrialParams {
	out := cloneParams(p)
	if len(packetSizes) > 1 && rng.Intn(8) == 0 {
		out.PacketSize = packetSizes[rng.Intn(len(packetSizes))]
		return out
	}
	if len(out.Adversary.Controls) == 0 {
		return out
	}
	i := rng.Intn(len(out.Adversary.Controls))
	ctl := &out.Adversary.Controls[i]
	step := spread / 4
	switch rng.Intn(3) {
	case 0:
		ctl.Phase = clamp(ctl.Phase+(rng.Float64()*2-1)*step, 0, spread)
	case 1:
		ctl.BurstDelay = clamp(ctl.BurstDelay+(rng.Float64()*2-1)*step, 0, spread)
	default:
		ctl.Pace = !ctl.Pace
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, x))
}

// buildContradiction validates and packages a violating trial. The trace
// of every source is re-generated and checked against its declared token
// bucket first: a delay observed under non-conforming traffic would say
// nothing about the bound, so such trials are discarded (returns nil)
// rather than reported.
func buildContradiction(sc Scenario, analyzer string, bounds []float64, p TrialParams, seed int64) *Contradiction {
	for i, c := range sc.Net.Connections {
		times := p.Adversary.Source(c, i).Times(p.PacketSize, p.Horizon)
		if err := c.Bucket.Conforms(times, p.PacketSize); err != nil {
			return nil
		}
	}
	sres, err := sim.Run(sc.Net, sim.Config{PacketSize: p.PacketSize, Horizon: p.Horizon, Adversary: &p.Adversary})
	if err != nil {
		return nil
	}
	worst := -1
	worstExcess := 0.0
	for c := range sc.Net.Connections {
		b := bounds[c]
		if math.IsInf(b, 1) || b <= 0 {
			continue
		}
		slack := sim.QuantizationSlack(sc.Net, c, p.PacketSize)
		if excess := sres.Stats[c].MaxDelay - (b + slack); excess > worstExcess {
			worst = c
			worstExcess = excess
		}
	}
	if worst < 0 {
		return nil
	}
	return &Contradiction{
		Scenario: sc.Name,
		Analyzer: analyzer,
		Conn:     worst,
		ConnName: sc.Net.Connections[worst].Name,
		Bound:    bounds[worst],
		Observed: sres.Stats[worst].MaxDelay,
		Slack:    sim.QuantizationSlack(sc.Net, worst, p.PacketSize),
		Spec:     netspec.ToSpec(sc.Net),
		Params:   cloneParams(p),
		Seed:     seed,
	}
}

// ReplayOutcome is the result of re-running a contradiction's trial.
type ReplayOutcome struct {
	// Observed is the re-simulated worst delay of the contradicted
	// connection.
	Observed float64
	// Violates reports whether the replay still exceeds the recorded
	// bound plus slack.
	Violates bool
	// Matches reports whether the replay reproduced the recorded
	// observation exactly (the simulator is deterministic, so it must).
	Matches bool
}

// Replay re-runs a contradiction from its own spec and trial parameters
// alone and checks that the violation reproduces. It is the "one command"
// that makes every reported violation independently verifiable.
func Replay(c *Contradiction) (*ReplayOutcome, error) {
	if c.Spec == nil {
		return nil, fmt.Errorf("falsify: contradiction carries no topology spec")
	}
	net, err := netspec.FromSpec(c.Spec)
	if err != nil {
		return nil, fmt.Errorf("falsify: rebuilding topology: %w", err)
	}
	if c.Conn < 0 || c.Conn >= len(net.Connections) {
		return nil, fmt.Errorf("falsify: connection %d out of range", c.Conn)
	}
	if c.Params.Horizon <= 0 {
		return nil, fmt.Errorf("falsify: contradiction carries no trial horizon")
	}
	for i, conn := range net.Connections {
		times := c.Params.Adversary.Source(conn, i).Times(c.Params.PacketSize, c.Params.Horizon)
		if err := conn.Bucket.Conforms(times, c.Params.PacketSize); err != nil {
			return nil, fmt.Errorf("falsify: replay trace does not conform: %w", err)
		}
	}
	sres, err := sim.Run(net, sim.Config{
		PacketSize: c.Params.PacketSize,
		Horizon:    c.Params.Horizon,
		Adversary:  &c.Params.Adversary,
	})
	if err != nil {
		return nil, err
	}
	obs := sres.Stats[c.Conn].MaxDelay
	return &ReplayOutcome{
		Observed: obs,
		Violates: obs > c.Bound+c.Slack,
		Matches:  obs == c.Observed,
	}, nil
}
