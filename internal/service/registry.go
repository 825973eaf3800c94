package service

import (
	"fmt"
	"sort"
	"strings"

	"delaycalc/internal/analysis"
)

// analyzerAliases maps every accepted user-facing name to its analyzer.
// The canonical names (first per analyzer) are what AnalyzerNames lists.
// integratedsp and sp are older names of Integrated, which analyzes
// static-priority networks too.
var analyzerAliases = map[string]analysis.Analyzer{
	"integrated":     analysis.Integrated{},
	"int":            analysis.Integrated{},
	"decomposed":     analysis.Decomposed{},
	"dec":            analysis.Decomposed{},
	"servicecurve":   analysis.ServiceCurve{},
	"sc":             analysis.ServiceCurve{},
	"gr":             analysis.GuaranteedRateNetworkCurve{},
	"guaranteedrate": analysis.GuaranteedRateNetworkCurve{},
	"integratedsp":   analysis.Integrated{},
	"sp":             analysis.Integrated{},
}

// canonicalNames lists the analyzer names advertised to users; aliases
// resolve but are not listed.
var canonicalNames = []string{"integrated", "decomposed", "servicecurve", "gr"}

// PickAnalyzer resolves a user-facing algorithm name (case-insensitive,
// aliases accepted). It is the single registry shared by the daemon and
// the command-line tools.
func PickAnalyzer(name string) (analysis.Analyzer, error) {
	a, ok := analyzerAliases[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q (want %s)", name, strings.Join(AnalyzerNames(), ", "))
	}
	return a, nil
}

// AnalyzerNames returns the canonical analyzer names, sorted.
func AnalyzerNames() []string {
	out := make([]string, len(canonicalNames))
	copy(out, canonicalNames)
	sort.Strings(out)
	return out
}

// ResolveAnalyzers maps a comma-separated list of analyzer names to their
// analyzers, deduplicating while preserving order. The single name "all"
// expands to every canonical analyzer. It is the registry entry point the
// falsification harness uses, so newly registered analyzers are attackable
// by name the moment they land.
func ResolveAnalyzers(list string) ([]analysis.Analyzer, error) {
	var names []string
	if strings.EqualFold(strings.TrimSpace(list), "all") {
		names = AnalyzerNames()
	} else {
		for _, n := range strings.Split(list, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no analyzers named (want a comma-separated subset of %s, or \"all\")",
			strings.Join(AnalyzerNames(), ", "))
	}
	var out []analysis.Analyzer
	seen := map[string]bool{}
	for _, n := range names {
		a, err := PickAnalyzer(n)
		if err != nil {
			return nil, err
		}
		if seen[a.Name()] {
			continue
		}
		seen[a.Name()] = true
		out = append(out, a)
	}
	return out, nil
}
