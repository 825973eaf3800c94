package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// analyzeItem is one whole-network analysis of the analyze-full set.
type analyzeItem struct {
	key      string // class and span name; the metric is analysis.<key>_<unit>
	unit     string // ms | us
	net      string // which network of the set it analyses
	analyzer analysis.Analyzer
	// loose names the Decomposed item on the same FIFO network whose
	// bounds this item's must not exceed.
	loose string
}

func (it analyzeItem) metric() string { return it.key + "_" + it.unit }

func (it analyzeItem) div() float64 {
	if it.unit == "ms" {
		return 1e3
	}
	return 1
}

// analyzeItems is the fixed set, in pass order.
var analyzeItems = []analyzeItem{
	{key: "ft16_int", unit: "ms", net: "ft16", analyzer: analysis.Integrated{}},
	{key: "ft8_int", unit: "ms", net: "ft8", analyzer: analysis.Integrated{}, loose: "ft8_dec"},
	{key: "ft8_dec", unit: "ms", net: "ft8", analyzer: analysis.Decomposed{}},
	{key: "pt64_int", unit: "ms", net: "pt64", analyzer: analysis.Integrated{}, loose: "pt64_dec"},
	{key: "pt64_dec", unit: "ms", net: "pt64", analyzer: analysis.Decomposed{}},
	{key: "pt64_sc", unit: "ms", net: "pt64", analyzer: analysis.ServiceCurve{}},
	{key: "rf_int", unit: "ms", net: "rf", analyzer: analysis.Integrated{}},
	{key: "rf_int4", unit: "ms", net: "rf", analyzer: analysis.Integrated{ChainLength: 4}},
	{key: "sp64_isp", unit: "us", net: "sp64", analyzer: analysis.IntegratedSP{}},
	{key: "sp64_dec", unit: "us", net: "sp64", analyzer: analysis.Decomposed{}},
	{key: "edf64_dec", unit: "us", net: "edf64", analyzer: analysis.Decomposed{}},
	{key: "gr64_gr", unit: "us", net: "gr64", analyzer: analysis.GuaranteedRateNetworkCurve{}},
	{key: "gr64_dec", unit: "us", net: "gr64", analyzer: analysis.Decomposed{}},
}

// analyzeSizes fixes the networks of the set.
type analyzeSizes struct {
	fabricK, fabricHosts int // the large fat-tree
	smallK, smallHosts   int // the small fat-tree
	tandem               int // switches of every tandem
	rfServers, rfConns   int
	passes               int // passes per round
}

var fullAnalyzeSizes = analyzeSizes{fabricK: 16, fabricHosts: 100, smallK: 8, smallHosts: 20,
	tandem: 64, rfServers: 64, rfConns: 400, passes: 5}

// tinyAnalyzeSizes is what the tests run.
var tinyAnalyzeSizes = analyzeSizes{fabricK: 4, fabricHosts: 4, smallK: 4, smallHosts: 2,
	tandem: 8, rfServers: 12, rfConns: 30, passes: 1}

// buildAnalyzeSet builds the networks the items analyse. Only the random
// feed-forward network depends on the seed.
func buildAnalyzeSet(sz analyzeSizes, seed int64) (map[string]*topo.Network, error) {
	set := map[string]*topo.Network{}
	var err error
	add := func(name string, net *topo.Network, e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("building %s: %w", name, e)
		}
		set[name] = net
	}
	ft16, e := topo.FatTree(sz.fabricK, sz.fabricHosts, 0.55)
	add("ft16", ft16, e)
	ft8, e := topo.FatTree(sz.smallK, sz.smallHosts, 0.55)
	add("ft8", ft8, e)
	pt64, e := topo.PaperTandem(sz.tandem, 0.8)
	add("pt64", pt64, e)
	rf, e := topo.RandomFeedforward(sz.rfServers, sz.rfConns, 0.6, seed)
	add("rf", rf, e)
	tandem := func(d server.Discipline) (*topo.Network, error) {
		return topo.Tandem(topo.TandemSpec{Switches: sz.tandem, Sigma: 1, Rho: 0.2, Capacity: 1,
			Discipline: d, Priority0: 1})
	}
	sp, e := tandem(server.StaticPriority)
	add("sp64", sp, e)
	edf, e := tandem(server.EDF)
	add("edf64", edf, e)
	gr, e := tandem(server.GuaranteedRate)
	add("gr64", gr, e)
	if err != nil {
		return nil, err
	}
	for i := range edf.Connections {
		edf.Connections[i].Deadline = 400
	}
	// A guaranteed-rate server needs a scheduling latency and a reserved
	// rate per connection; four connections share an interior link.
	for i := range gr.Servers {
		gr.Servers[i].Latency = 0.1
	}
	for i := range gr.Connections {
		gr.Connections[i].Rate = 0.25
	}
	return set, nil
}

// analyzeRound is one round of analyze-full: build the set, then run
// whole passes over it. No daemon and no admission engine take part.
func analyzeRound(env *roundEnv) (*roundData, error) {
	sz := fullAnalyzeSizes
	if env.scale < 1 {
		sz = tinyAnalyzeSizes
	}
	rd := newRoundData()
	setupStart := time.Now()
	set, err := buildAnalyzeSet(sz, env.rngSeed("rf"))
	if err != nil {
		return nil, err
	}
	// One untimed pass fills the curve interning tables and arena pools.
	results, err := analyzePass(env, rd, set, false)
	if err != nil {
		return nil, err
	}
	rd.setup = time.Since(setupStart)

	sum := fnv.New64a()
	for _, it := range analyzeItems {
		fmt.Fprintf(sum, "%s/%d/%d;", it.key, len(set[it.net].Servers), len(set[it.net].Connections))
	}
	fmt.Fprintf(sum, "rf=%d", env.rngSeed("rf"))
	rd.opHash = sum.Sum64()

	w := openWindow()
	for p := 0; p < sz.passes; p++ {
		passStart := time.Now()
		if results, err = analyzePass(env, rd, set, true); err != nil {
			return nil, err
		}
		rd.observe("pass", time.Since(passStart))
	}
	w.close(rd)
	rd.liveHeap()
	checkAnalyses(rd, results)
	return rd, nil
}

// analyzePass analyses every item once. A timed pass files each item's
// latency under its key; in a traced round every call is a span.
func analyzePass(env *roundEnv, rd *roundData, set map[string]*topo.Network, timed bool) (map[string]*analysis.Result, error) {
	if timed && env.tr != nil {
		return tracedAnalyzePass(env.tr, rd, set)
	}
	results := make(map[string]*analysis.Result, len(analyzeItems))
	for _, it := range analyzeItems {
		start := time.Now()
		res, err := analysis.AnalyzeWithContext(context.Background(), it.analyzer, set[it.net])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.key, err)
		}
		if timed {
			rd.observe(it.key, time.Since(start))
			rd.attempted++
		}
		results[it.key] = res
	}
	return results, nil
}

// checkAnalyses is analyze-full's output check: every bound is finite,
// and on the FIFO networks the integrated bound of each connection does
// not exceed the decomposed one.
func checkAnalyses(rd *roundData, results map[string]*analysis.Result) {
	sum := fnv.New64a()
	for _, it := range analyzeItems {
		res := results[it.key]
		for c, b := range res.Bounds {
			if math.IsInf(b, 0) || math.IsNaN(b) {
				rd.failCheck("%s: connection %d has bound %g", it.key, c, b)
			}
			fmt.Fprintf(sum, "%016x", math.Float64bits(b))
		}
		if it.loose == "" {
			continue
		}
		for c, b := range res.Bounds {
			if loose := results[it.loose].Bounds[c]; b > loose {
				rd.failCheck("%s: connection %d: bound %g exceeds the decomposed %g", it.key, c, b, loose)
			}
		}
	}
	rd.digest = sum.Sum64()
}
