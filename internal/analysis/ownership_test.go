package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// handout is what one way of asking for an analysis hands out: a result,
// and the per-stage breakdown when the way has one (a baseline's Stages).
type handout struct {
	res    *Result
	stages [][]Stage
}

// clone is a deep copy of h: the reference a saved handout is held to.
func (h handout) clone() handout {
	out := handout{res: &Result{Algorithm: h.res.Algorithm, Bounds: slices.Clone(h.res.Bounds), Backlogs: slices.Clone(h.res.Backlogs)}}
	if h.stages != nil {
		out.stages = make([][]Stage, len(h.stages))
	}
	for i, stages := range h.stages {
		for _, st := range stages {
			out.stages[i] = append(out.stages[i], Stage{Servers: slices.Clone(st.Servers), Delay: st.Delay})
		}
	}
	return out
}

// requireBitIdentical fails unless got holds exactly want's values, to the
// bit: every bound, backlog, and stage with its servers.
func requireBitIdentical(t *testing.T, label string, want, got handout) {
	t.Helper()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if got.res.Algorithm != want.res.Algorithm || !same(got.res.Bounds, want.res.Bounds) || !same(got.res.Backlogs, want.res.Backlogs) {
		t.Fatalf("%s: bounds or backlogs changed:\n got %v %v\nwant %v %v", label, got.res.Bounds, got.res.Backlogs, want.res.Bounds, want.res.Backlogs)
	}
	if len(got.stages) != len(want.stages) {
		t.Fatalf("%s: %d stage lists, want %d", label, len(got.stages), len(want.stages))
	}
	for i := range want.stages {
		if !slices.EqualFunc(got.stages[i], want.stages[i], func(a, b Stage) bool {
			return math.Float64bits(a.Delay) == math.Float64bits(b.Delay) && slices.Equal(a.Servers, b.Servers)
		}) {
			t.Fatalf("%s: connection %d stages %v, want %v", label, i, got.stages[i], want.stages[i])
		}
	}
}

// baselineHandout is what a baseline hands out: its result and its stages.
func baselineHandout(b *Baseline) handout { return handout{b.Result(), b.Stages()} }

// scribble writes into every slice a handout holds.
func (h handout) scribble() {
	for i := range h.res.Bounds {
		h.res.Bounds[i] = 99
	}
	for i := range h.res.Backlogs {
		h.res.Backlogs[i] = 99
	}
	for _, stages := range h.stages {
		for j := range stages {
			stages[j].Delay = 99
			for k := range stages[j].Servers {
				stages[j].Servers[k] = -1
			}
		}
	}
}

// routesOf copies every route of net.
func routesOf(net *topo.Network) [][]int {
	routes := make([][]int, len(net.Connections))
	for i, c := range net.Connections {
		routes[i] = slices.Clone(c.Path)
	}
	return routes
}

// TestResultsOwnTheirStorage holds every analyzer, through every way a
// result is handed out (Analyze, NewBaseline + Result and Stages,
// Extension.Result and ShrinkContext, each with its promoted baseline's
// Stages), to the promise that the result's slices are its own:
//   - a saved result stays bit-identical across 50 later analyses of other
//     networks, which reuse the pooled scratch and arenas, and across
//     concurrent trials on the same baseline;
//   - writing into one result changes no second result of the same call;
//   - writing into a result changes no route of the input network.
//
// The network-curve analyzers once handed out one stage list to every
// Result of a baseline.
func TestResultsOwnTheirStorage(t *testing.T) {
	fifo, err := topo.PaperTandem(4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := disciplineTandem(6, server.StaticPriority)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := disciplineTandem(6, server.GuaranteedRate)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    Analyzer
		net  *topo.Network
	}{
		{"Decomposed", Decomposed{}, fifo},
		{"Integrated", Integrated{}, fifo},
		{"Integrated/SP", Integrated{}, sp},
		{"ServiceCurve", ServiceCurve{}, fifo},
		{"GuaranteedRate", GuaranteedRateNetworkCurve{}, gr},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			routes := routesOf(tc.net)
			cand := tc.net.Connections[0]
			cand.Name, cand.Path = "cand", slices.Clone(cand.Path)
			bl, err := tc.a.NewBaseline(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			// Trials release connection 0 and admit copies of it, which
			// fit every network's reservations.
			shrunk, err := bl.ShrinkContext(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			base := shrunk.Promote()
			ext, err := base.ExtendContext(ctx, cand)
			if err != nil {
				t.Fatal(err)
			}
			ways := []struct {
				name string
				get  func() handout
			}{
				{"Analyze", func() handout {
					res, err := tc.a.Analyze(tc.net)
					if err != nil {
						t.Fatal(err)
					}
					return handout{res: res}
				}},
				{"Baseline", func() handout { return baselineHandout(bl) }},
				{"Extension", func() handout { return handout{ext.Result(), ext.Promote().Stages()} }},
				{"ShrinkContext", func() handout { return handout{shrunk.Result(), shrunk.Promote().Stages()} }},
			}
			saved := make([]handout, len(ways))
			want := make([]handout, len(ways))
			for i, w := range ways {
				saved[i] = w.get()
				want[i] = saved[i].clone()
			}

			// Concurrent trials on the same baseline, then 50 analyses of
			// other networks.
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range 5 {
						c := cand
						c.Name = fmt.Sprintf("cand%d.%d", g, k)
						e, err := base.ExtendContext(ctx, c)
						if err != nil {
							errs <- err
							return
						}
						baselineHandout(e.Promote()).scribble()
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			others := []Analyzer{Decomposed{}, Integrated{}, ServiceCurve{}, Integrated{ChainLength: 3}}
			for i := range 50 {
				net, err := topo.PaperTandem(3+i%5, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				a := others[i%len(others)]
				if i%5 == 0 {
					b, err := a.NewBaseline(net)
					if err != nil {
						t.Fatal(err)
					}
					baselineHandout(b).scribble()
					continue
				}
				res, err := a.Analyze(net)
				if err != nil {
					t.Fatal(err)
				}
				handout{res: res}.scribble()
			}
			for i, w := range ways {
				requireBitIdentical(t, w.name+", after later analyses", want[i], saved[i])
			}

			for i, w := range ways {
				first, second := w.get(), w.get()
				again := second.clone()
				first.scribble()
				requireBitIdentical(t, w.name+", after writing into another result", again, second)
				requireBitIdentical(t, w.name+", saved, after writing into another result", want[i], saved[i])
				if got := routesOf(tc.net); !slices.EqualFunc(got, routes, slices.Equal) {
					t.Fatalf("%s: writing into a result changed the input network's routes to %v", w.name, got)
				}
			}
		})
	}
}
