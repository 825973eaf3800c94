package analysis

// What the external test package — the oracle and its differentials,
// oracle_test.go and oracle_diff_test.go — borrows from this package's own
// tests, so that both pin to one copy of the corpora and of the comparison.
var (
	DifferentialCorpus = differentialCorpus
	BenchTandemNet     = benchTandemNet
	FabricNet          = fabricNet
	SingleServerNet    = singleServerNet
	CheckResultsClose  = checkResultsClose
	AnalyzeAllocs      = analyzeAllocs
	RaceBuild          = raceBuild
)
