// Command bench is the repository's benchmark: four deterministic
// workloads over the delayd serving stack and the analysis core, each a
// fixed, seeded operation sequence, reported as end-to-end metrics (timed
// run) or per-layer metrics (traced run). See README.md.
//
//	go run -C bench . -workload serve-churn -seed 1 [-seconds 12] [-trace 1]
//	go run -C bench . -all -seed 1
//	go run -C bench . -workload shard-churn -repeat 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -spec for the list)")
		all     = flag.Bool("all", false, "run every workload")
		seed    = flag.Int64("seed", 1, "seed of every generator")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed windows of one run add up to")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics, spans written under .bench_build/trace)")
		repeat  = flag.Int("repeat", 0, "run the workload this many times on seeds seed, seed+1, ... and print each metric's spread")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var todo []*workload
	switch {
	case *all:
		todo = workloads
	case findWorkload(*name) != nil:
		todo = []*workload{findWorkload(*name)}
	default:
		fatal(fmt.Errorf("unknown workload %q (want -all or one of %v)", *name, workloadNames()))
	}
	printEnvironment(os.Stdout)
	ok := true
	for _, w := range todo {
		if *repeat > 0 {
			ok = repeatWorkload(os.Stdout, w, *seed, *seconds, *repeat) && ok
			continue
		}
		res, err := runWorkload(w, *seed, *seconds, 1, *trace == 1)
		if err != nil {
			fatal(err)
		}
		spans := ""
		if res.tr != nil {
			spans = spanPath(w, *seed)
			if err := res.tr.write(spans); err != nil {
				fatal(err)
			}
		}
		res.print(os.Stdout, spans)
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printEnvironment records what the numbers were measured on.
func printEnvironment(out io.Writer) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "bench: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// declared returns the metrics a run of this kind reports.
func (r *result) declared() []metricDecl {
	if r.tr != nil {
		return perLayer
	}
	return endToEnd
}

// print writes the run as a table and, last, the result line.
func (r *result) print(out io.Writer, spanFile string) {
	kind := "timed"
	if r.tr != nil {
		kind = "traced"
	}
	fmt.Fprintf(out, "\n%s seed=%d %s run: %d rounds, %d attempted, %d failed, ops=%016x bounds=%016x\n",
		r.workload.name, r.seed, kind, r.rounds, r.attempted, r.failed, r.opHash, r.digest)
	for _, m := range r.declared() {
		fmt.Fprintf(out, "  %-34s %14.6g %-6s n=%d\n", m.Name, r.metrics[m.Name], m.Unit, r.samples[m.Name])
	}
	fmt.Fprintf(out, "  first-round counts:")
	for _, name := range sortedKeys(r.counts) {
		fmt.Fprintf(out, " %s=%g", name, r.counts[name])
	}
	fmt.Fprintln(out)
	if spanFile != "" {
		fmt.Fprintf(out, "  %d spans written to %s\n", len(r.tr.spans), spanFile)
	}
	for _, c := range r.checks {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", c)
	}
	if r.correct() {
		fmt.Fprintln(out, "  output checks passed")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.declared() {
		line.Metrics[m.Name] = value{r.metrics[m.Name], m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", raw)
}

// spanPath is where a traced run leaves its spans: under the working
// directory, which the benchmark may write to.
func spanPath(w *workload, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
}

// repeatWorkload runs w n times on consecutive seeds and prints, for each
// end-to-end metric, its extremes, quartiles and spread — the distance
// between the quartiles as a share of the median — against its bound.
func repeatWorkload(out io.Writer, w *workload, seed int64, seconds float64, n int) bool {
	values := map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		res, err := runWorkload(w, seed+int64(i), seconds, 1, false)
		if err != nil {
			fatal(err)
		}
		ok = ok && res.correct()
		fmt.Fprintf(out, "%s seed=%d: %d rounds, %d attempted, %d failed, ops=%016x bounds=%016x commits=%g admitted_final=%g correct=%v\n",
			w.name, res.seed, res.rounds, res.attempted, res.failed, res.opHash, res.digest,
			res.counts["admission.commits"], res.counts["admission.admitted_final"], res.correct())
		for _, m := range endToEnd {
			values[m.Name] = append(values[m.Name], res.metrics[m.Name])
		}
	}
	fmt.Fprintf(out, "\n%s: %d runs\n  %-20s %12s %12s %12s %12s %12s %8s %6s\n", w.name, n,
		"metric", "min", "q1", "median", "q3", "max", "spread", "bound")
	for _, m := range endToEnd {
		vs := values[m.Name]
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		q1, q3 := lo, hi
		if len(vs) >= 2 {
			q1, q3 = quartiles(vs)
		}
		verdict := ""
		if s := spread(vs); s > m.Bound {
			verdict = "  spread exceeds the bound"
		} else if s > m.Bound/3 {
			verdict = "  spread above a third of the bound"
		}
		fmt.Fprintf(out, "  %-20s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
			m.Name, lo, q1, median(vs), q3, hi, 100*spread(vs), 100*m.Bound, verdict)
	}
	return ok
}

// writeSpec prints BENCHMARK.json from the declarations in this package.
func writeSpec(out io.Writer) error {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDecl{w.name, w.why})
	}
	doc.EndToEnd = endToEnd
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDecl{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
