package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// TestBoundLaws holds two laws of a sound bound on the differential corpus,
// its guaranteed-rate copies and the random static-priority corpus:
//
//   - monotone: raising one connection's sigma by 25%, or its rho by 5%,
//     lowers no bound by more than 1e-9 relative. A rho that would pass the
//     connection's access rate, or its reserved rate where a
//     guaranteed-rate server holds it to that rate, is skipped;
//   - permutation: reversing the connection list reverses the bounds,
//     within 1e-9 relative.
//
// Integrated breaks the monotone law on FIFO networks under a rho raise
// (on ff6x9-seed24, raising conn 1's rho makes the partition integrate
// servers 1 and 2 for conn 6, whose bound falls by 26%) and on
// static-priority ones under both raises. Those breaks are logged, not
// gated; every other analyzer and raise is gated, and the permutation law
// everywhere.
func TestBoundLaws(t *testing.T) {
	fifo := differentialCorpus(t)
	gr := map[string]*topo.Network{}
	for name, net := range fifo {
		gr[name] = grified(net)
	}
	sp := spRandomCorpus(t)
	for _, tc := range []struct {
		a      Analyzer
		nets   map[string]*topo.Network
		logged string // the raises whose monotone breaks are logged, not gated
	}{
		{Decomposed{}, fifo, ""},
		{ServiceCurve{}, fifo, ""},
		{Integrated{ChainLength: 2}, fifo, "rho"},
		{Integrated{ChainLength: 4}, fifo, "rho"},
		{GuaranteedRateNetworkCurve{}, gr, ""},
		{Decomposed{}, sp, ""},
		{Integrated{}, sp, "sigma rho"},
	} {
		label := fmt.Sprintf("%s%+v", tc.a.Name(), tc.a)
		names := make([]string, 0, len(tc.nets))
		for name := range tc.nets {
			names = append(names, name)
		}
		sort.Strings(names)
		var checks, broken int
		for _, name := range names {
			net := tc.nets[name]
			base := analyzeOrFatal(t, tc.a, net, label+"/"+name)
			rev := copyNetwork(net)
			slices.Reverse(rev.Connections)
			res := analyzeOrFatal(t, tc.a, rev, label+"/"+name+" reversed")
			for i, want := range base.Bounds {
				if got := res.Bounds[len(res.Bounds)-1-i]; !boundsClose(got, want) {
					t.Errorf("%s/%s: conn %d bound %v with the connections reversed, %v in order", label, name, i, got, want)
				}
			}
			for c, conn := range net.Connections {
				for _, up := range []struct {
					param, law string
					sigma, rho float64
				}{
					{"sigma", "sigma+25%", 1.25 * conn.Bucket.Sigma, conn.Bucket.Rho},
					{"rho", "rho+5%", conn.Bucket.Sigma, 1.05 * conn.Bucket.Rho},
				} {
					if conn.AccessRate > 0 && up.rho > conn.AccessRate || reserves(net, conn) && up.rho > conn.Rate {
						continue
					}
					raised := copyNetwork(net)
					raised.Connections[c].Bucket.Sigma, raised.Connections[c].Bucket.Rho = up.sigma, up.rho
					res := analyzeOrFatal(t, tc.a, raised, fmt.Sprintf("%s/%s conn %d %s", label, name, c, up.law))
					for i, want := range base.Bounds {
						checks++
						got := res.Bounds[i]
						if got >= want || boundsClose(got, want) {
							continue
						}
						broken++
						msg := fmt.Sprintf("%s/%s: conn %d %s lowers conn %d from %v to %v (%+.1f%%)",
							label, name, c, up.law, i, want, got, 100*(got-want)/want)
						if strings.Contains(tc.logged, up.param) {
							t.Log(msg)
						} else {
							t.Error(msg)
						}
					}
				}
			}
		}
		t.Logf("%s: %d of %d monotone checks broken", label, broken, checks)
	}
}

// analyzeOrFatal analyzes net with a, failing the test if the analysis does.
func analyzeOrFatal(t *testing.T, a Analyzer, net *topo.Network, label string) *Result {
	t.Helper()
	res, err := a.Analyze(net)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// reserves reports whether a connection's reserved rate binds: whether any
// server on its path is guaranteed-rate.
func reserves(net *topo.Network, c topo.Connection) bool {
	for _, s := range c.Path {
		if net.Servers[s].Discipline == server.GuaranteedRate {
			return true
		}
	}
	return false
}
