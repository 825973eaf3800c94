// Package cliutil holds the small helpers shared by the command-line
// tools: loading a network from a spec file or a builder flag. Analyzer
// names resolve through service.PickAnalyzer, the one registry the CLIs
// share with the delayd daemon.
package cliutil

import (
	"fmt"
	"os"

	"delaycalc/internal/netspec"
	"delaycalc/internal/topo"
)

// LoadNetwork builds a network from either a JSON spec path or the paper's
// tandem parameters. Exactly one of specPath / tandem must be given.
func LoadNetwork(specPath string, tandem int, load float64) (*topo.Network, error) {
	switch {
	case specPath != "" && tandem > 0:
		return nil, fmt.Errorf("use either -spec or -tandem, not both")
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return netspec.Decode(data)
	case tandem > 0:
		return topo.PaperTandem(tandem, load)
	default:
		return nil, fmt.Errorf("provide -spec FILE or -tandem N (see -h)")
	}
}
