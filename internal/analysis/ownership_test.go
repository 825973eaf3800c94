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

// cloneResult is a deep copy of r: the reference a saved result is held to.
func cloneResult(r *Result) *Result {
	out := &Result{Algorithm: r.Algorithm, Bounds: slices.Clone(r.Bounds), Backlogs: slices.Clone(r.Backlogs)}
	if r.Stages != nil {
		out.Stages = make([][]Stage, len(r.Stages))
	}
	for i, stages := range r.Stages {
		for _, st := range stages {
			out.Stages[i] = append(out.Stages[i], Stage{Servers: slices.Clone(st.Servers), Delay: st.Delay})
		}
	}
	return out
}

// requireBitIdentical fails unless got holds exactly want's values, to the
// bit: every bound, backlog, and stage with its servers.
func requireBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if got.Algorithm != want.Algorithm || !same(got.Bounds, want.Bounds) || !same(got.Backlogs, want.Backlogs) {
		t.Fatalf("%s: bounds or backlogs changed:\n got %v %v\nwant %v %v", label, got.Bounds, got.Backlogs, want.Bounds, want.Backlogs)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("%s: %d stage lists, want %d", label, len(got.Stages), len(want.Stages))
	}
	for i := range want.Stages {
		if !slices.EqualFunc(got.Stages[i], want.Stages[i], func(a, b Stage) bool {
			return math.Float64bits(a.Delay) == math.Float64bits(b.Delay) && slices.Equal(a.Servers, b.Servers)
		}) {
			t.Fatalf("%s: connection %d stages %v, want %v", label, i, got.Stages[i], want.Stages[i])
		}
	}
}

// scribble writes into every slice a result holds.
func scribble(r *Result) {
	for i := range r.Bounds {
		r.Bounds[i] = 99
	}
	for i := range r.Backlogs {
		r.Backlogs[i] = 99
	}
	for _, stages := range r.Stages {
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
// result is handed out (Analyze, NewBaseline + Result, Extension.Result and
// ShrinkContext), to the promise that the result's slices are its own:
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
				get  func() *Result
			}{
				{"Analyze", func() *Result {
					res, err := tc.a.Analyze(tc.net)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}},
				{"Baseline.Result", bl.Result},
				{"Extension.Result", ext.Result},
				{"ShrinkContext", shrunk.Result},
			}
			saved := make([]*Result, len(ways))
			want := make([]*Result, len(ways))
			for i, w := range ways {
				saved[i] = w.get()
				want[i] = cloneResult(saved[i])
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
						scribble(e.Result())
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
					scribble(b.Result())
					continue
				}
				res, err := a.Analyze(net)
				if err != nil {
					t.Fatal(err)
				}
				scribble(res)
			}
			for i, w := range ways {
				requireBitIdentical(t, w.name+", after later analyses", want[i], saved[i])
			}

			for i, w := range ways {
				first, second := w.get(), w.get()
				again := cloneResult(second)
				scribble(first)
				requireBitIdentical(t, w.name+", after writing into another result", again, second)
				requireBitIdentical(t, w.name+", saved, after writing into another result", want[i], saved[i])
				if got := routesOf(tc.net); !slices.EqualFunc(got, routes, slices.Equal) {
					t.Fatalf("%s: writing into a result changed the input network's routes to %v", w.name, got)
				}
			}
		})
	}
}
