// Package experiments regenerates the paper's evaluation (Section 4):
// every figure's series on the tandem network of n 3x3 switches, plus the
// supporting experiments listed in DESIGN.md. Each generator is a row
// function over one loop, sweep, and returns plain series data;
// cmd/figures and the benchmarks render them.
package experiments

import (
	"fmt"

	"delaycalc/internal/analysis"
	"delaycalc/internal/textplot"
	"delaycalc/internal/topo"
)

// DefaultLoads is the workload sweep used by all figures: interior-link
// utilizations from 10% to 95%.
var DefaultLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// Figure holds the reproduced series of one paper figure: the end-to-end
// delay curves (top panel) and the relative improvement curves (bottom
// panel).
type Figure struct {
	Name        string
	Delays      []textplot.Series
	Improvement []textplot.Series
}

// RelativeImprovement is the paper's metric R_{X,Y}(U) = (D_X - D_Y)/D_X:
// the fraction by which method Y improves on method X.
func RelativeImprovement(dx, dy float64) float64 {
	if dx == 0 {
		return 0
	}
	return (dx - dy) / dx
}

// sweep is the row loop every generator runs on: it calls row(x) for each
// x in order and appends the row's i-th value, at x, to the series named
// names[i]. The first error stops it.
func sweep(xs []float64, names []string, row func(x float64) ([]float64, error)) ([]textplot.Series, error) {
	series := make([]textplot.Series, len(names))
	for i, name := range names {
		series[i].Name = name
	}
	for _, x := range xs {
		ys, err := row(x)
		if err != nil {
			return nil, err
		}
		for i, y := range ys {
			series[i].X = append(series[i].X, x)
			series[i].Y = append(series[i].Y, y)
		}
	}
	return series, nil
}

// orDefault returns loads, or DefaultLoads when loads is nil.
func orDefault(loads []float64) []float64 {
	if loads == nil {
		return DefaultLoads
	}
	return loads
}

// sized suffixes each name with the network size, as in "Integrated(4)".
func sized(n int, names ...string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%s(%d)", name, n)
	}
	return out
}

// appendBounds analyzes net with each analyzer in turn and appends the
// bound of connection 0 (on the paper tandem, the connection traveling the
// longest path, the one the paper reports) to ys.
func appendBounds(ys []float64, net *topo.Network, as ...analysis.Analyzer) ([]float64, error) {
	for _, a := range as {
		r, err := a.Analyze(net)
		if err != nil {
			return nil, err
		}
		ys = append(ys, r.Bound(0))
	}
	return ys, nil
}

// twoMethodFigure builds a figure comparing methods x and y over the given
// network sizes: delay curves for both and R_{X,Y} per size.
func twoMethodFigure(name string, x, y analysis.Analyzer, sizes []int, loads []float64) (*Figure, error) {
	fig := &Figure{Name: name}
	for _, n := range sizes {
		names := sized(n, x.Name(), y.Name(), x.Name()+"/"+y.Name())
		s, err := sweep(orDefault(loads), names, func(u float64) ([]float64, error) {
			net, err := topo.PaperTandem(n, u)
			if err != nil {
				return nil, err
			}
			d, err := appendBounds(nil, net, x, y)
			if err != nil {
				return nil, err
			}
			return append(d, RelativeImprovement(d[0], d[1])), nil
		})
		if err != nil {
			return nil, err
		}
		fig.Delays = append(fig.Delays, s[0], s[1])
		fig.Improvement = append(fig.Improvement, s[2])
	}
	return fig, nil
}

// Figure4 reproduces the paper's Figure 4: Decomposed versus ServiceCurve
// end-to-end delays for Connection 0 on tandems of 2, 4, 6 and 8 switches,
// plus the relative improvement R_{Decomposed,ServiceCurve}.
func Figure4(loads []float64) (*Figure, error) {
	return twoMethodFigure("Figure 4: Decomposed vs Service Curve",
		analysis.Decomposed{}, analysis.ServiceCurve{}, []int{2, 4, 6, 8}, loads)
}

// Figure5 reproduces the paper's Figure 5: Integrated versus Decomposed
// for tandems of 2, 4 and 8 switches (the sizes the paper plots), with the
// relative improvement R_{Decomposed,Integrated}.
func Figure5(loads []float64) (*Figure, error) {
	return twoMethodFigure("Figure 5: Integrated vs Decomposed",
		analysis.Decomposed{}, analysis.Integrated{}, []int{2, 4, 8}, loads)
}

// Figure6 reproduces the paper's Figure 6: Integrated versus ServiceCurve
// for tandems of 2, 4, 6 and 8 switches, with the relative improvement
// R_{ServiceCurve,Integrated}.
func Figure6(loads []float64) (*Figure, error) {
	return twoMethodFigure("Figure 6: Integrated vs Service Curve",
		analysis.ServiceCurve{}, analysis.Integrated{}, []int{2, 4, 6, 8}, loads)
}

// BurstinessSweep checks the paper's Section 4.1 claim that increasing the
// source burstiness (sigma) raises absolute delays but leaves the relative
// improvements essentially unchanged. It returns, per sigma, the relative
// improvement of Integrated over Decomposed for connection 0.
func BurstinessSweep(n int, load float64, sigmas []float64) (textplot.Series, textplot.Series, error) {
	s, err := sweep(sigmas, []string{
		fmt.Sprintf("R(Decomposed,Integrated) n=%d U=%g", n, load),
		fmt.Sprintf("Decomposed delay n=%d U=%g", n, load),
	}, func(sigma float64) ([]float64, error) {
		net, err := topo.Tandem(topo.TandemSpec{Switches: n, Sigma: sigma, Rho: load / 4, Capacity: 1})
		if err != nil {
			return nil, err
		}
		d, err := appendBounds(nil, net, analysis.Decomposed{}, analysis.Integrated{})
		if err != nil {
			return nil, err
		}
		return []float64{RelativeImprovement(d[0], d[1]), d[0]}, nil
	})
	if err != nil {
		return textplot.Series{}, textplot.Series{}, err
	}
	return s[0], s[1], nil
}

// Render pretty-prints a figure: a log-scale delay chart, an improvement
// chart, and the underlying tables.
func Render(fig *Figure) string {
	out := textplot.PlotLog(fig.Name+" — end-to-end delay of connection 0 vs load", fig.Delays, 64, 18)
	out += "\n" + textplot.Table(fig.Delays)
	out += "\n" + textplot.Plot(fig.Name+" — relative improvement vs load", fig.Improvement, 64, 14)
	out += "\n" + textplot.Table(fig.Improvement)
	return out
}
