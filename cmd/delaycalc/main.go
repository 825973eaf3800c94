// Command delaycalc analyzes a network described in the JSON spec format
// and prints per-connection end-to-end delay bounds.
//
// Usage:
//
//	delaycalc -spec network.json [-algo integrated|decomposed|servicecurve|gr] [-stages] [-dot]
//	delaycalc -tandem 4 -load 0.8 [-algo ...]        # the paper's topology
//
// With -stages the per-subnetwork breakdown is printed; with -dot the
// route graph is emitted in Graphviz format instead of an analysis.
package main

import (
	"flag"
	"fmt"
	"os"

	"delaycalc/internal/analysis"
	"delaycalc/internal/cliutil"
	"delaycalc/internal/service"
)

func main() {
	var (
		specPath = flag.String("spec", "", "path to a JSON network spec")
		tandem   = flag.Int("tandem", 0, "build the paper's tandem with this many switches instead of reading a spec")
		load     = flag.Float64("load", 0.8, "interior-link utilization for -tandem")
		algo     = flag.String("algo", "integrated", "analysis algorithm: integrated (FIFO or static priority), decomposed, servicecurve, gr")
		stages   = flag.Bool("stages", false, "print the per-subnetwork delay breakdown")
		backlogs = flag.Bool("backlogs", false, "print per-server buffer bounds")
		dot      = flag.Bool("dot", false, "emit the route graph in Graphviz DOT format and exit")
	)
	flag.Parse()

	net, err := cliutil.LoadNetwork(*specPath, *tandem, *load)
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(net.DOT())
		return
	}
	a, err := service.PickAnalyzer(*algo)
	if err != nil {
		fatal(err)
	}
	// Only a baseline keeps the per-stage breakdown; its result is the
	// same analysis's, bit for bit.
	var (
		res       *analysis.Result
		breakdown [][]analysis.Stage
	)
	if *stages {
		b, err := a.NewBaseline(net)
		if err != nil {
			fatal(err)
		}
		res, breakdown = b.Result(), b.Stages()
	} else if res, err = a.Analyze(net); err != nil {
		fatal(err)
	}
	fmt.Printf("algorithm: %s\n", res.Algorithm)
	fmt.Printf("max utilization: %.3f\n\n", net.MaxUtilization())
	fmt.Printf("%-12s %-8s %12s %10s\n", "connection", "hops", "delay bound", "deadline")
	for i, c := range net.Connections {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("conn%d", i)
		}
		deadline := "-"
		if c.Deadline > 0 {
			status := "OK"
			if res.Bound(i) > c.Deadline {
				status = "MISS"
			}
			deadline = fmt.Sprintf("%g %s", c.Deadline, status)
		}
		fmt.Printf("%-12s %-8d %12.6g %10s\n", name, len(c.Path), res.Bound(i), deadline)
		if *stages {
			for _, st := range breakdown[i] {
				fmt.Printf("    servers %v: %.6g\n", st.Servers, st.Delay)
			}
		}
	}
	if *backlogs {
		fmt.Printf("\n%-12s %16s\n", "server", "buffer bound")
		for s, srv := range net.Servers {
			name := srv.Name
			if name == "" {
				name = fmt.Sprintf("s%d", s)
			}
			fmt.Printf("%-12s %16.6g\n", name, res.Backlog(s))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "delaycalc:", err)
	os.Exit(1)
}
