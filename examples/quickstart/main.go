// Quickstart: build the paper's tandem network, run the three delay
// analyses, and print the bounds for the longest connection — a five-line
// tour of the library's main entry points.
package main

import (
	"fmt"
	"log"

	"delaycalc"
)

func main() {
	// The paper's evaluation topology: 4 switches in a chain, every
	// interior link loaded to 80% by 2n+1 = 9 token-bucket connections.
	net, err := delaycalc.PaperTandem(4, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d servers, %d connections, max utilization %.0f%%\n\n",
		len(net.Servers), len(net.Connections), 100*net.MaxUtilization())

	for _, a := range []delaycalc.Analyzer{
		delaycalc.NewDecomposed(),
		delaycalc.NewServiceCurve(),
		delaycalc.NewIntegrated(),
	} {
		res, err := a.Analyze(net)
		if err != nil {
			log.Fatal(err)
		}
		// Connection 0 travels the longest path (all 4 switches); the
		// paper reports its end-to-end worst-case delay bound.
		fmt.Printf("%-14s end-to-end bound for conn0: %8.4f\n", a.Name(), res.Bound(0))
	}

	// The integrated analysis also breaks the bound into its two-server
	// subnetwork contributions, which a baseline of the same run keeps.
	b, err := delaycalc.NewIntegrated().NewBaseline(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nintegrated per-subnetwork breakdown for conn0:")
	for _, st := range b.Stages()[0] {
		fmt.Printf("  servers %v contribute %.4f\n", st.Servers, st.Delay)
	}
}
