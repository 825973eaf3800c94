// Command figures regenerates the paper's evaluation figures (and the
// supporting experiments from DESIGN.md) as ASCII charts, tables, and
// optional CSV files.
//
// Usage:
//
//	figures                  # all figures, in the order below
//	figures -fig 4           # Figure 4: Decomposed vs Service Curve
//	figures -fig 5           # Figure 5: Integrated vs Decomposed
//	figures -fig 6           # Figure 6: Integrated vs Service Curve
//	figures -fig burst       # the burstiness-invariance check
//	figures -fig validate    # simulation vs bounds
//	figures -fig percentiles # simulated delay percentiles vs bound
//	figures -fig ablation    # pairing ablation
//	figures -fig greedygap   # Lemma-4 greedy estimate vs sound bound vs sim
//	figures -fig gr          # guaranteed-rate comparison
//	figures -fig edf         # EDF extension
//	figures -fig chains      # integrated chain length sweep
//	figures -fig admission   # admission capacity vs deadline
//	figures -fig sp          # static-priority extension
//	figures -csv DIR         # additionally write CSV series into DIR
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"delaycalc/internal/experiments"
	"delaycalc/internal/textplot"
)

// csvFile is one CSV a figure writes: its base name and its series.
type csvFile struct {
	name   string
	series []textplot.Series
}

// figure is one entry of the table: its -fig name and a generator that
// returns what it prints and the CSVs it writes.
type figure struct {
	name string
	run  func() (string, []csvFile, error)
}

// figures lists every figure in the order -fig all produces them.
var figures = []figure{
	{"4", paperFigure(experiments.Figure4, "figure4")},
	{"5", paperFigure(experiments.Figure5, "figure5")},
	{"6", paperFigure(experiments.Figure6, "figure6")},
	{"burst", func() (string, []csvFile, error) {
		imp, abs, err := experiments.BurstinessSweep(4, 0.6, []float64{0.5, 1, 2, 4, 8})
		if err != nil {
			return "", nil, err
		}
		series := []textplot.Series{imp, abs}
		text := textplot.Plot("Burstiness invariance (Section 4.1 claim)", series[:1], 64, 12) +
			"\n" + textplot.Table(series)
		return text, []csvFile{{"burstiness", series}}, nil
	}},
	{"validate", chart(textplot.PlotLog, "Simulated worst case vs analytic bounds (n=4)", 16, "validation", func() ([]textplot.Series, error) {
		return experiments.ValidationSweep(4, nil, 0.02)
	})},
	{"percentiles", chart(textplot.Plot, "Conn-0 delay percentiles vs integrated bound (n=4)", 14, "delay_percentiles", func() ([]textplot.Series, error) {
		return experiments.DelayPercentileSweep(4, nil, 0.02)
	})},
	{"ablation", chart(textplot.Plot, "Ablation: two-server pairing vs singletons (n=4)", 14, "ablation_pairing", func() ([]textplot.Series, error) {
		return experiments.AblationPairing(4, nil)
	})},
	{"greedygap", chart(textplot.Plot, "Greedy Lemma-4 estimate vs sound bound vs simulation (n=2)", 14, "greedy_gap", func() ([]textplot.Series, error) {
		return experiments.GreedyGap(nil)
	})},
	{"gr", chart(textplot.Plot, "Guaranteed-rate servers: network curve vs decomposition (n=4)", 14, "guaranteed_rate", func() ([]textplot.Series, error) {
		return experiments.GuaranteedRateComparison(4, nil)
	})},
	{"edf", chart(textplot.Plot, "EDF extension: urgent vs cross vs FIFO (n=4)", 14, "edf", func() ([]textplot.Series, error) {
		return experiments.EDFExperiment(4, nil)
	})},
	{"chains", chart(textplot.Plot, "Integrated chain length sweep (n=6)", 14, "chain_length", func() ([]textplot.Series, error) {
		return experiments.ChainLengthSweep(6, nil)
	})},
	{"admission", chart(textplot.Plot, "Admission capacity vs deadline (n=4)", 14, "admission_capacity", func() ([]textplot.Series, error) {
		return experiments.AdmissionCapacity(4, nil, 100)
	})},
	{"sp", chart(textplot.Plot, "Static-priority extension (n=4)", 14, "static_priority", func() ([]textplot.Series, error) {
		return experiments.StaticPriorityExperiment(4, nil)
	})},
}

// paperFigure prints one of the paper's Figures 4-6 and writes its delay
// and improvement panels as <prefix>_delay and <prefix>_improvement.
func paperFigure(gen func([]float64) (*experiments.Figure, error), prefix string) func() (string, []csvFile, error) {
	return func() (string, []csvFile, error) {
		f, err := gen(nil)
		if err != nil {
			return "", nil, err
		}
		return experiments.Render(f), []csvFile{{prefix + "_delay", f.Delays}, {prefix + "_improvement", f.Improvement}}, nil
	}
}

// chart prints a generator's series as one plot of the given height above
// their table and writes them as csv.
func chart(plot func(string, []textplot.Series, int, int) string, title string, height int, csv string,
	gen func() ([]textplot.Series, error)) func() (string, []csvFile, error) {
	return func() (string, []csvFile, error) {
		series, err := gen()
		if err != nil {
			return "", nil, err
		}
		return plot(title, series, 64, height) + "\n" + textplot.Table(series), []csvFile{{csv, series}}, nil
	}
}

func main() {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	var (
		fig    = flag.String("fig", "all", "which figure to produce: "+strings.Join(names, ", ")+", all")
		csvDir = flag.String("csv", "", "directory to write CSV series into")
	)
	flag.Parse()

	todo := figures
	if *fig != "all" {
		todo = nil
		for _, f := range figures {
			if f.name == *fig {
				todo = []figure{f}
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "figures: unknown figure %q (want one of %s, all)\n", *fig, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	for _, f := range todo {
		text, csvs, err := f.run()
		check(err)
		fmt.Println(text)
		if *csvDir == "" {
			continue
		}
		for i, c := range csvs {
			if i > 0 {
				fmt.Println() // a further CSV of a figure prints no text of its own
			}
			check(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, c.name+".csv")
			check(os.WriteFile(path, []byte(textplot.CSV(c.series)), 0o644))
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
