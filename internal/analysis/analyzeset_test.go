package analysis

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// analyzeSetItem is one whole-network analysis of the benchmark's
// analyze-full set (bench/analyze.go), rebuilt here at full size.
type analyzeSetItem struct {
	key      string
	net      string
	analyzer Analyzer
}

// analyzeSet mirrors bench/analyze.go's buildAnalyzeSet and analyzeItems;
// the random feed-forward network is the one of seed 1.
func analyzeSet(t testing.TB) ([]analyzeSetItem, map[string]*topo.Network) {
	t.Helper()
	nets := map[string]*topo.Network{}
	add := func(name string, net *topo.Network, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		nets[name] = net
	}
	ft16, err := topo.FatTree(16, 100, 0.55)
	add("ft16", ft16, err)
	ft8, err := topo.FatTree(8, 20, 0.55)
	add("ft8", ft8, err)
	pt64, err := topo.PaperTandem(64, 0.8)
	add("pt64", pt64, err)
	rf, err := topo.RandomFeedforward(64, 400, 0.6, 1)
	add("rf", rf, err)
	for name, d := range map[string]server.Discipline{"sp64": server.StaticPriority, "edf64": server.EDF, "gr64": server.GuaranteedRate} {
		net, err := disciplineTandem(64, d)
		add(name, net, err)
	}
	return []analyzeSetItem{
		{"ft16_int", "ft16", Integrated{}},
		{"ft8_int", "ft8", Integrated{}},
		{"ft8_dec", "ft8", Decomposed{}},
		{"pt64_int", "pt64", Integrated{}},
		{"pt64_dec", "pt64", Decomposed{}},
		{"pt64_sc", "pt64", ServiceCurve{}},
		{"rf_int", "rf", Integrated{}},
		{"rf_int4", "rf", Integrated{ChainLength: 4}},
		{"sp64_isp", "sp64", IntegratedSP{}},
		{"sp64_dec", "sp64", Decomposed{}},
		{"edf64_dec", "edf64", Decomposed{}},
		{"gr64_gr", "gr64", GuaranteedRateNetworkCurve{}},
		{"gr64_dec", "gr64", Decomposed{}},
	}, nets
}

// disciplineTandem builds the set's tandem of n switches of discipline d as
// bench/analyze.go does: an EDF connection's deadline is 400, and a
// guaranteed-rate server has latency 0.1 and reserves 0.25 per connection.
func disciplineTandem(n int, d server.Discipline) (*topo.Network, error) {
	net, err := topo.Tandem(topo.TandemSpec{Switches: n, Sigma: 1, Rho: 0.2, Capacity: 1, Discipline: d, Priority0: 1})
	if err != nil {
		return nil, err
	}
	for i := range net.Connections {
		switch d {
		case server.EDF:
			net.Connections[i].Deadline = 400
		case server.GuaranteedRate:
			net.Connections[i].Rate = 0.25
		}
	}
	if d == server.GuaranteedRate {
		for i := range net.Servers {
			net.Servers[i].Latency = 0.1
		}
	}
	return net, nil
}

// boundsDigest is the benchmark's digest of one item: FNV-1a over the bits
// of its bounds.
func boundsDigest(bounds []float64) string {
	sum := fnv.New64a()
	for _, b := range bounds {
		fmt.Fprintf(sum, "%016x", math.Float64bits(b))
	}
	return fmt.Sprintf("%016x", sum.Sum64())
}

// TestAnalyzeSetMatchesParent pins every item's bounds digest, from
// testdata/analyzeset_parent.txt, to the commit each last moved at.
// pt64_sc's digest moved twice: ServiceCurve once read its cross traffic
// from the pooled propagation's recycled buffers, so on a route of four or
// more hops a recorded entry envelope was overwritten by a later hop's (125
// of 129 bounds looser, up to 6.0e6 against 14.0); it reads a traced run's
// unit traces now. Then, when the residual became one pass
// (minplus.Arena.Residual), bound 39 of 129 went one ulp looser,
// 0x1.25b8608f4bee4p+09 -> 0x1.25b8608f4bee5p+09 (1.9e-16 relative),
// because the leftover's right limit at theta = 0 is read from the point
// arrays where the composition extrapolated it from a midpoint. rf_int4's
// digest moved when the partition stopped building chains that a route
// skips a position of (TestLongChainLedger): 399 of its 400 bounds went
// looser, the largest by 78x, 0 tighter — the hops the skipped chains never
// charged — and every bound now equals rf_int's, bit for bit. Every other
// item kept its digest through all three. ANALYZESET_WRITE=<file> writes every
// line afresh.
func TestAnalyzeSetMatchesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses the full-size benchmark set")
	}
	items, nets := analyzeSet(t)
	var golden strings.Builder
	got := map[string]string{}
	for _, it := range items {
		res, err := it.analyzer.Analyze(nets[it.net])
		if err != nil {
			t.Fatalf("%s: %v", it.key, err)
		}
		got[it.key] = boundsDigest(res.Bounds)
		fmt.Fprintf(&golden, "%s %s\n", it.key, got[it.key])
	}
	if path := os.Getenv("ANALYZESET_WRITE"); path != "" {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("testdata/analyzeset_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(items) {
		t.Fatalf("%d golden lines for %d items", len(lines), len(items))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		key, digest := f[0], f[1]
		d, ok := got[key]
		if !ok {
			t.Fatalf("golden item %q not in the set", key)
		}
		if d != digest {
			t.Errorf("%s: bounds digest %s, parent %s", key, d, digest)
		}
	}
}

// BenchmarkAnalyzeSet times one pass over the analyze-full set, every item
// in pass order: with -cpu 1 and -cpuprofile, the in-process profile
// docs/PERFORMANCE.md quotes.
func BenchmarkAnalyzeSet(b *testing.B) {
	items, nets := analyzeSet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if _, err := it.analyzer.Analyze(nets[it.net]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
