// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark result. It exists so make
// targets can publish machine-readable benchmark artifacts
// (e.g. BENCH_curves.json) without external tooling.
//
//	go test -bench=. -benchmem ./internal/minplus | benchjson > bench.json
//
// Each object carries the benchmark name (GOMAXPROCS suffix stripped), the
// owning package (from the interleaved "pkg:" headers), the iteration
// count, and whichever of ns/op, B/op, and allocs/op the run reported.
// Results are sorted by (pkg, name) so re-running the same benchmark set
// yields byte-identical artifacts regardless of package execution order.
//
// With -diff the freshly parsed results are additionally compared against
// a committed snapshot:
//
//	go test -bench=. ./... | benchjson -diff BENCH_curves.json -tolerance 1.3
//
// A benchmark whose ns/op exceeds tolerance times its snapshot value is a
// regression; benchjson prints every comparison to stderr and exits 2 if
// any benchmark regressed. Benchmarks present on only one side are
// reported but do not fail the gate (new benchmarks land before their
// snapshot does).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

func (r result) key() string { return r.Pkg + " " + r.Name }

func parse(sc *bufio.Scanner) ([]result, error) {
	var results []result
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := result{Name: name, Pkg: pkg, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// diff compares current ns/op against the snapshot per (pkg, name) and
// reports whether any benchmark regressed past the tolerance factor.
func diff(current, snapshot []result, tolerance float64) bool {
	base := make(map[string]result, len(snapshot))
	for _, r := range snapshot {
		base[r.key()] = r
	}
	regressed := false
	seen := make(map[string]bool, len(current))
	for _, r := range current {
		seen[r.key()] = true
		b, ok := base[r.key()]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %-60s NEW (no snapshot entry)\n", r.key())
			continue
		}
		if b.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		status := "ok"
		if ratio > tolerance {
			status = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-60s %12.0f -> %12.0f ns/op (%.2fx) %s\n",
			r.key(), b.NsPerOp, r.NsPerOp, ratio, status)
	}
	for _, b := range snapshot {
		if !seen[b.key()] {
			fmt.Fprintf(os.Stderr, "benchjson: %-60s MISSING from current run\n", b.key())
		}
	}
	return regressed
}

func main() {
	diffPath := flag.String("diff", "", "compare parsed results against this committed snapshot; exit 2 on ns/op regressions")
	tolerance := flag.Float64("tolerance", 1.3, "with -diff, the allowed ns/op slowdown factor before a benchmark counts as regressed")
	flag.Parse()

	var base []result
	if *diffPath != "" {
		snapshot, err := os.ReadFile(*diffPath)
		if err == nil {
			err = json.Unmarshal(snapshot, &base)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *diffPath, err)
			os.Exit(1)
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	results, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].key() < results[j].key() })

	regressed := false
	if *diffPath != "" {
		regressed = diff(results, base, *tolerance)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if regressed {
		os.Exit(2)
	}
}
