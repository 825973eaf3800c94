package analysis

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

func spTandem(n int, load float64) *topo.Network {
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: n, Sigma: 1, Rho: load / 4, Capacity: 1,
		Discipline: server.StaticPriority,
		// Connection 0 is the LOW-priority class here: that is where the
		// integrated pairing has something to improve (the urgent class
		// already gets near-zero bounds).
		Priority0: 1, PriorityCross: 0,
	})
	if err != nil {
		panic(err)
	}
	return net
}

func TestIntegratedSPNeverWorseThanDecomposed(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		for _, u := range []float64{0.3, 0.6, 0.9} {
			net := spTandem(n, u)
			ri, err := (Integrated{}).Analyze(net)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := (Decomposed{}).Analyze(net)
			if err != nil {
				t.Fatal(err)
			}
			for i := range net.Connections {
				if ri.Bound(i) > rd.Bound(i)+1e-9 {
					t.Errorf("n=%d U=%g conn %d: integratedSP %g > SP decomposed %g",
						n, u, i, ri.Bound(i), rd.Bound(i))
				}
				if math.IsInf(ri.Bound(i), 1) || ri.Bound(i) < 0 {
					t.Errorf("n=%d U=%g conn %d: bad bound %g", n, u, i, ri.Bound(i))
				}
			}
		}
	}
}

func TestIntegratedSPImprovesLowPriorityThroughTraffic(t *testing.T) {
	net := spTandem(6, 0.7)
	ri, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := (Decomposed{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Bound(0) >= rd.Bound(0) {
		t.Errorf("integratedSP %g not better than decomposed %g for the multi-hop low-priority connection",
			ri.Bound(0), rd.Bound(0))
	}
}

func TestIntegratedSPMatchesFIFOWhenOneClass(t *testing.T) {
	// With every connection in the same class, static priority IS FIFO:
	// the rate-latency minorant of the full service line is the line itself,
	// and the one engine evaluates the same expressions on it.
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: 4, Sigma: 1, Rho: 0.15, Capacity: 1,
		Discipline: server.StaticPriority,
	})
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	fifoNet, err := topo.Tandem(topo.TandemSpec{
		Switches: 4, Sigma: 1, Rho: 0.15, Capacity: 1,
		Discipline: server.FIFO,
	})
	if err != nil {
		t.Fatal(err)
	}
	rfifo, err := (Integrated{}).Analyze(fifoNet)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		if rsp.Bound(i) != rfifo.Bound(i) {
			t.Errorf("conn %d: single-class SP %g != FIFO %g", i, rsp.Bound(i), rfifo.Bound(i))
		}
	}
}

// TestIntegratedSPRejectsNonSP pins that the IntegratedSP name is
// Integrated: it analyzes a FIFO network as Integrated does, reports the
// algorithm as Integrated on a static-priority one, and refuses a FIFO
// server in a static-priority network, naming it.
func TestIntegratedSPRejectsNonSP(t *testing.T) {
	fifo := singleServerNet(2, 1, 0.2, 1)
	got, err := (IntegratedSP{}).Analyze(fifo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (Integrated{}).Analyze(fifo)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "fifo", want, got)
	sp, err := (IntegratedSP{}).Analyze(spTandem(2, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Algorithm != "Integrated" {
		t.Errorf("static priority: Algorithm %q, want Integrated", sp.Algorithm)
	}
	mixed := spTandem(3, 0.6)
	mixed.Servers[2].Discipline = server.FIFO
	if _, err := (IntegratedSP{}).Analyze(mixed); err == nil || !strings.Contains(err.Error(), "server 2 is FIFO") {
		t.Errorf("mixed network: error %v, want one naming server 2", err)
	}
}

func TestIntegratedSPUnstable(t *testing.T) {
	net := spTandem(2, 0.7)
	for i := range net.Connections {
		net.Connections[i].Bucket.Rho = 0.3 // 4 connections per link: 120% load
	}
	res, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Bound(0), 1) {
		t.Errorf("unstable: bound %g, want +Inf", res.Bound(0))
	}
}

func TestIntegratedSPUrgentClassTiny(t *testing.T) {
	// The urgent class must keep near-trivial bounds regardless of the
	// bulk class's load.
	net, err := topo.Tandem(topo.TandemSpec{
		Switches: 3, Sigma: 1, Rho: 0.2, Capacity: 1,
		Discipline: server.StaticPriority, Priority0: 0, PriorityCross: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Integrated{}).Analyze(net)
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0 is alone in the urgent class: essentially zero delay.
	if res.Bound(0) > 1e-6 {
		t.Errorf("urgent lone connection bound %g, want ~0", res.Bound(0))
	}
}

// spify turns a FIFO network into a static-priority one, classes 0-2 dealt
// round-robin over the connections; withLatency also gives every server a
// fixed latency.
func spify(net *topo.Network, withLatency bool) *topo.Network {
	for s := range net.Servers {
		net.Servers[s].Discipline = server.StaticPriority
		if withLatency {
			net.Servers[s].Latency = 0.05 * float64(1+s%3)
		}
	}
	for c := range net.Connections {
		net.Connections[c].Priority = c % 3
	}
	return net
}

// spRandomCorpus is 26 random feedforward networks (12 servers, 30
// connections) made static-priority, odd seeds with server latencies.
func spRandomCorpus(t testing.TB) map[string]*topo.Network {
	t.Helper()
	nets := map[string]*topo.Network{}
	for seed := int64(1); seed <= 26; seed++ {
		net, err := topo.RandomFeedforward(12, 30, 0.6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nets[fmt.Sprintf("spff12x30-seed%d", seed)] = spify(net, seed%2 == 1)
	}
	return nets
}

// spCorpus is the 43 static-priority networks Integrated is pinned on:
// 15 two-class tandems, the benchmark's sp64, a one-class tandem and
// spRandomCorpus.
func spCorpus(t testing.TB) map[string]*topo.Network {
	t.Helper()
	nets := spRandomCorpus(t)
	for _, n := range []int{2, 3, 4, 6, 8} {
		for _, u := range []float64{0.3, 0.6, 0.9} {
			nets[fmt.Sprintf("sptandem%d-u%g", n, u)] = spTandem(n, u)
		}
	}
	for name, spec := range map[string]topo.TandemSpec{
		"sp64":     {Switches: 64, Sigma: 1, Rho: 0.2, Capacity: 1, Discipline: server.StaticPriority, Priority0: 1},
		"oneclass": {Switches: 4, Sigma: 1, Rho: 0.15, Capacity: 1, Discipline: server.StaticPriority},
	} {
		net, err := topo.Tandem(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = net
	}
	return nets
}

// TestIntegratedSPMatchesParentEngine pins the per-class view of analyzeChain
// to the bounds and backlogs of the separate SP chain analysis it replaced,
// captured as hex floats in testdata/integratedsp_parent.txt just before
// that engine was deleted: sp64 (the benchmark's item) bit for bit, the rest
// within 1e-12 relative (run partial sums associate differently from the old
// per-connection fold). The one-pass residual (minplus.Arena.Residual) moved
// two more bounds, each tighter in the last bits: spff12x30-seed5 bound 6
// (1.4e-16 relative) and spff12x30-seed10 bound 23 (2.6e-16).
func TestIntegratedSPMatchesParentEngine(t *testing.T) {
	data, err := os.ReadFile("testdata/integratedsp_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	nets := spCorpus(t)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2*len(nets) {
		t.Fatalf("%d golden lines for %d networks", len(lines), len(nets))
	}
	results := map[string]*Result{}
	exact, total := 0, 0
	for _, line := range lines {
		f := strings.Fields(line)
		name, kind := f[0], f[1]
		res := results[name]
		if res == nil {
			if nets[name] == nil {
				t.Fatalf("golden network %q not in the corpus", name)
			}
			if res, err = (Integrated{}).Analyze(nets[name]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			results[name] = res
		}
		got := res.Bounds
		if kind == "backlogs" {
			got = res.Backlogs
		}
		if len(got) != len(f)-2 {
			t.Fatalf("%s: %d %s, golden has %d", name, len(got), kind, len(f)-2)
		}
		for i, h := range f[2:] {
			want, err := strconv.ParseFloat(h, 64)
			if err != nil {
				t.Fatalf("%s %s[%d]: %v", name, kind, i, err)
			}
			total++
			if got[i] == want {
				exact++
			} else if name == "sp64" || math.Abs(got[i]-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s %s[%d] = %v (%x), parent engine %v (%x)", name, kind, i, got[i], got[i], want, want)
			}
		}
	}
	t.Logf("%d of %d values bit-identical to the parent engine", exact, total)
}

// TestIntegratedSPAllocs holds the static-priority passes to the pooled
// chain engine's memory discipline on the benchmark's sp64 item: the
// separate SP analysis this replaced built maps and heap curves per class
// and chain (25,097 allocations per pass).
func TestIntegratedSPAllocs(t *testing.T) {
	_, allocs := analyzeAllocs(t, Integrated{}, spCorpus(t)["sp64"])
	t.Logf("%.0f allocs/pass", allocs)
	// Measured 325 on go1.24; the ceiling leaves 10%.
	if allocs > 358 && !raceBuild() {
		t.Errorf("Integrated.Analyze allocates %.0f times per pass on sp64, ceiling is 358", allocs)
	}
}
