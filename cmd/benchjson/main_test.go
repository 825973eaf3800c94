package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: delaycalc/internal/minplus
BenchmarkSumN-2            	 2000000	       600.0 ns/op	    3200 B/op	       1 allocs/op
BenchmarkConvolveGated-2   	  500000	      2400 ns/op
PASS
ok  	delaycalc/internal/minplus	3.1s
pkg: delaycalc/internal/analysis
BenchmarkFabricAnalyzeK8-2 	      20	  50000000 ns/op	 1000000 B/op	    2000 allocs/op
Benchmark results above
`

func TestParseAndDiff(t *testing.T) {
	got, err := parse(bufio.NewScanner(strings.NewReader(benchOutput)))
	if err != nil {
		t.Fatal(err)
	}
	const minplus, analysis = "delaycalc/internal/minplus", "delaycalc/internal/analysis"
	want := []result{
		{Name: "BenchmarkSumN", Pkg: minplus, Iterations: 2000000, NsPerOp: 600, BytesPerOp: 3200, AllocsPerOp: 1},
		{Name: "BenchmarkConvolveGated", Pkg: minplus, Iterations: 500000, NsPerOp: 2400},
		{Name: "BenchmarkFabricAnalyzeK8", Pkg: analysis, Iterations: 20, NsPerOp: 5e7, BytesPerOp: 1000000, AllocsPerOp: 2000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\ngot  %+v\nwant %+v", got, want)
	}

	snap := func(sumN, gated, fabric float64) []result {
		s := append([]result(nil), want...)
		s[0].NsPerOp, s[1].NsPerOp, s[2].NsPerOp = sumN, gated, fabric
		return s
	}
	cases := []struct {
		name      string
		snapshot  []result
		regressed bool
	}{
		{"unchanged", want, false},
		{"inside tolerance", snap(500, 2400, 5e7), false},
		{"regression past tolerance", snap(400, 2400, 5e7), true},
		{"improvement", snap(6000, 24000, 5e8), false},
		{"benchmark missing from the snapshot", want[1:], false},
		{"benchmark missing from the run", append(snap(600, 2400, 5e7), result{Name: "BenchmarkGone", Pkg: minplus, NsPerOp: 1}), false},
		{"same name in another package is not compared", []result{{Name: "BenchmarkSumN", Pkg: analysis, NsPerOp: 1}}, false},
	}
	for _, tc := range cases {
		if got := diff(want, tc.snapshot, 1.3); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.regressed)
		}
	}
}
