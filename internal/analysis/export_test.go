package analysis

// What the external test package — the oracle and its differentials,
// oracle_test.go and oracle_diff_test.go — borrows from this package's own
// tests, so that both pin to one copy of the corpora, of the comparison and
// of the hand-derived closed forms.
var (
	DifferentialCorpus = differentialCorpus
	BenchTandemNet     = benchTandemNet
	FabricNet          = fabricNet
	SingleServerNet    = singleServerNet
	CheckResultsClose  = checkResultsClose
	CheckStagesClose   = checkStagesClose
	StagesOf           = stagesOf
	AnalyzeAllocs      = analyzeAllocs
	RaceBuild          = raceBuild

	SingleFIFOFreshDelay = singleFIFOFreshDelay
	TandemFirstHopDelay  = tandemFirstHopDelay
	TandemSecondHopDelay = tandemSecondHopDelay
)
