package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// grified returns a guaranteed-rate copy of net: every server is
// guaranteed-rate with a latency of 0.05-0.15, and every connection
// reserves its sustained rate, so the reservations fit wherever the
// network is stable.
func grified(net *topo.Network) *topo.Network {
	out := copyNetwork(net)
	for s := range out.Servers {
		out.Servers[s].Discipline = server.GuaranteedRate
		out.Servers[s].Latency = 0.05 * float64(1+s%3)
	}
	for c := range out.Connections {
		out.Connections[c].Rate = out.Connections[c].Bucket.Rho
	}
	return out
}

// requireSameOutcome asserts that a trial failed exactly when the full
// analysis did, with the same error, and otherwise produced bit-identical
// results — the nil backlogs of an unstable guaranteed-rate run included.
func requireSameOutcome(t *testing.T, label string, full *Result, fullErr error, ext *Extension, extErr error) {
	t.Helper()
	if (fullErr == nil) != (extErr == nil) || (fullErr != nil && fullErr.Error() != extErr.Error()) {
		t.Fatalf("%s: full analysis error %v, trial error %v", label, fullErr, extErr)
	}
	if fullErr != nil {
		return
	}
	incr := ext.Result()
	if (full.Backlogs == nil) != (incr.Backlogs == nil) || len(full.Backlogs) != len(incr.Backlogs) {
		t.Fatalf("%s: backlogs %v, trial %v", label, full.Backlogs, incr.Backlogs)
	}
	requireSameResult(t, label, full, incr)
}

// TestNetworkCurvesIncrementalMatchFull drives ServiceCurve and the
// guaranteed-rate network curve through random churn: a baseline extended
// and shrunk one connection at a time must equal a full Analyze of every
// trial bit for bit. A hog whose sustained rate overloads its server (and
// whose reservation does not cover it) is admitted midway and released
// later, so unstable trials — all +Inf for ServiceCurve, closed-form
// bounds with nil backlogs for the guaranteed-rate curve — are compared
// too, as is the stable baseline shrunk back out of them.
func TestNetworkCurvesIncrementalMatchFull(t *testing.T) {
	ctx := context.Background()
	replayed := map[string]int{}
	for _, a := range []Analyzer{ServiceCurve{}, GuaranteedRateNetworkCurve{}} {
		for seed := int64(0); seed < 8; seed++ {
			net, err := topo.RandomFeedforward(7, 14, 0.5, seed)
			if err != nil {
				t.Fatal(err)
			}
			if a == (GuaranteedRateNetworkCurve{}) {
				net = grified(net)
			}
			hog := net.Connections[0]
			hog.Name, hog.Bucket, hog.Rate = "hog", traffic.TokenBucket{Sigma: 1, Rho: 0.9}, 0.01
			pool := net.Connections[7:]
			cur := &topo.Network{Servers: net.Servers, Connections: append([]topo.Connection(nil), net.Connections[:7]...)}
			bl, err := a.NewBaseline(cur)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 24; step++ {
				label := fmt.Sprintf("%s/seed%d/step%d", a.Name(), seed, step)
				var (
					trial  *topo.Network
					ext    *Extension
					extErr error
				)
				hogAt := -1
				for i, c := range cur.Connections {
					if c.Name == "hog" {
						hogAt = i
					}
				}
				switch {
				case step == 6 || step == 15:
					trial = &topo.Network{Servers: net.Servers, Connections: appendOne(cur.Connections, hog)}
					ext, extErr = bl.ExtendContext(ctx, hog)
				case hogAt >= 0 && (step == 11 || step == 20), len(cur.Connections) > 2 && rng.Intn(3) == 0:
					remove := rng.Intn(len(cur.Connections))
					if step == 11 || step == 20 {
						remove = hogAt
					}
					trial = &topo.Network{Servers: net.Servers, Connections: removeAt(cur.Connections, remove)}
					ext, extErr = bl.ShrinkContext(ctx, remove)
				default:
					cand := pool[rng.Intn(len(pool))]
					cand.Name = fmt.Sprintf("c%d", step)
					trial = &topo.Network{Servers: net.Servers, Connections: appendOne(cur.Connections, cand)}
					ext, extErr = bl.ExtendContext(ctx, cand)
				}
				full, fullErr := a.Analyze(trial)
				requireSameOutcome(t, label, full, fullErr, ext, extErr)
				if extErr != nil {
					continue
				}
				replayed[a.Name()] += ext.Stats.ReplayedUnits
				cur, bl = trial, ext.Promote()
			}
		}
	}
	for name, n := range replayed {
		if n == 0 {
			t.Errorf("%s trials replayed no unit", name)
		}
	}
}

// pollCancel is a context that cancels itself at its after-th Done poll:
// a cancellation that lands mid-run, between two of the driver's
// checkpoints.
type pollCancel struct {
	context.Context
	cancel context.CancelFunc
	after  int64
	polls  atomic.Int64
}

func newPollCancel(after int64) *pollCancel {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCancel{Context: ctx, cancel: cancel, after: after}
}

func (c *pollCancel) Done() <-chan struct{} {
	if c.polls.Add(1) >= c.after {
		c.cancel()
	}
	return c.Context.Done()
}

// TestNetworkCurvesHonourCancellation pins that ServiceCurve and the
// guaranteed-rate network curve observe a context cancelled mid-run: the
// run stops at the next checkpoint with the context's error instead of
// finishing the analysis. Both run Decomposed's units, so the poll after
// Decomposed's last one lands in the finish, which must observe it too.
func TestNetworkCurvesHonourCancellation(t *testing.T) {
	fifo, err := topo.RandomFeedforward(10, 16, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a   Analyzer
		net *topo.Network
	}{{ServiceCurve{}, fifo}, {GuaranteedRateNetworkCurve{}, grified(fifo)}} {
		ctx := newPollCancel(math.MaxInt64)
		if _, err := (Decomposed{}).AnalyzeContext(ctx, tc.net); err != nil {
			t.Fatal(err)
		}
		units := ctx.polls.Load()
		// The unit loop polls no more than that: Decomposed finishes.
		if _, err := (Decomposed{}).AnalyzeContext(newPollCancel(units+1), tc.net); err != nil {
			t.Fatalf("Decomposed polled past its %d unit-loop polls: %v", units, err)
		}
		for _, after := range []int64{4, units + 1} {
			ctx := newPollCancel(after)
			res, err := tc.a.AnalyzeContext(ctx, tc.net)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled after %d polls (unit loop %d), got result %v and error %v; want the context error", tc.a.Name(), after, units, res != nil, err)
			}
			if polls := ctx.polls.Load(); polls < after {
				t.Errorf("%s: the run polled the context %d times, so it did not reach the cancellation", tc.a.Name(), polls)
			}
		}
	}
}

// TestServiceCurveDeepTandemsDoNotPanic is the regression for the deep
// tandems whose network curve Convolve handed back decreasing (connection
// 0 of PaperTandem(96, 0.8) dipped by 0.4 at x ~ 1.02e9, hop 88), which
// then panicked in Convolve or HorizontalDeviation: the analysis must
// answer, bounding a connection whose curve cannot be represented by +Inf.
func TestServiceCurveDeepTandemsDoNotPanic(t *testing.T) {
	for _, tc := range []struct {
		n    int
		load float64
	}{{85, 0.8}, {96, 0.8}, {75, 0.9}, {99, 0.7}, {117, 0.6}} {
		net, err := topo.PaperTandem(tc.n, tc.load)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("PaperTandem(%d, %v)", tc.n, tc.load)
		var res *Result
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: ServiceCurve panicked: %v", label, r)
				}
			}()
			res, err = ServiceCurve{}.Analyze(net)
		}()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		unbounded := 0
		for i, d := range res.Bounds {
			if math.IsNaN(d) || d <= 0 {
				t.Errorf("%s: conn %d bound %v", label, i, d)
			}
			if math.IsInf(d, 1) {
				unbounded++
			}
		}
		if unbounded == 0 {
			t.Errorf("%s: no connection met an unrepresentable network curve", label)
		}
	}
}

// TestGuaranteedRateClosedFormMatchesConvolution holds the closed form
// beta_{R, sum T} to the per-hop min-plus convolution it replaces, bit for
// bit, on the benchmark's 64-switch guaranteed-rate tandem and on random
// guaranteed-rate networks, a third of them in bits per second at 1e8.
func TestGuaranteedRateClosedFormMatchesConvolution(t *testing.T) {
	gr64, err := disciplineTandem(64, server.GuaranteedRate)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*topo.Network{"gr64": gr64}
	for seed := int64(0); seed < 30; seed++ {
		net, err := topo.RandomFeedforward(12, 30, 0.7, seed)
		if err != nil {
			t.Fatal(err)
		}
		net = grified(net)
		if seed%3 == 0 {
			for s := range net.Servers {
				net.Servers[s].Capacity *= 1e8
			}
			for c := range net.Connections {
				conn := &net.Connections[c]
				conn.Bucket.Sigma *= 1e8
				conn.Bucket.Rho *= 1e8
				conn.AccessRate *= 1e8
				conn.Rate *= 1e8
			}
		}
		nets[fmt.Sprintf("rf12x30-seed%d", seed)] = net
	}
	for name, net := range nets {
		res, err := GuaranteedRateNetworkCurve{}.Analyze(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		norm, _, _, _, err := analyzable(net)
		if err != nil {
			t.Fatal(err)
		}
		for i, conn := range norm.Connections {
			var curve minplus.Curve
			for h, s := range conn.Path {
				beta := minplus.RateLatency(conn.Rate, norm.Servers[s].Latency)
				if h == 0 {
					curve = beta
				} else {
					curve = minplus.Convolve(curve, beta)
				}
			}
			if want := minplus.HorizontalDeviation(conn.SourceEnvelope(), curve); res.Bounds[i] != want {
				t.Errorf("%s: conn %d closed form %v, convolution %v", name, i, res.Bounds[i], want)
			}
		}
	}
}

// TestGuaranteedRateRunErrorsSurface pins the one behaviour the move onto
// the driver changed: the decomposed run behind the buffer bounds used to
// swallow its errors and answer with no backlogs. On a mixed network whose
// EDF server carries a connection without a deadline, the network curve
// analysis now fails like every other analyzer's run does.
func TestGuaranteedRateRunErrorsSurface(t *testing.T) {
	net := &topo.Network{
		Servers: []server.Server{
			{Name: "gr", Capacity: 1, Discipline: server.GuaranteedRate},
			{Name: "edf", Capacity: 1, Discipline: server.EDF},
		},
		Connections: []topo.Connection{
			{Name: "a", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.2}, Path: []int{0, 1}, Rate: 0.3},
		},
	}
	_, err := GuaranteedRateNetworkCurve{}.Analyze(net)
	if err == nil || !strings.Contains(err.Error(), "positive deadline") {
		t.Fatalf("got error %v, want the EDF server's missing deadline", err)
	}
	net.Connections[0].Deadline = 10
	res, err := GuaranteedRateNetworkCurve{}.Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Backlogs) != 2 || res.Backlogs[0] <= 0 {
		t.Fatalf("backlogs %v, want the decomposed run's", res.Backlogs)
	}
}
