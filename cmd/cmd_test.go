// Package cmd_test builds the command-line tools once and exercises
// their primary flag combinations end to end.
package cmd_test

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "delaycalc-cmds")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"delaycalc", "figures", "simulate", "admit", "falsify", "delayd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "delaycalc/cmd/"+tool)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes a built tool and returns combined output; it fails the test
// unless the exit status matches wantOK.
func run(t *testing.T, wantOK bool, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if (err == nil) != wantOK {
		t.Fatalf("%s %v: err=%v\n%s", tool, args, err, out)
	}
	return string(out)
}

// TestDelaycalcTandem holds the whole -stages -backlogs report on the
// paper's three-switch tandem at 70% load, byte for byte, to
// testdata/delaycalc-tandem3-<algo>.txt for the three FIFO analyzers: every
// bound, every stage with the servers it covers, every buffer bound.
func TestDelaycalcTandem(t *testing.T) {
	for _, algo := range []string{"integrated", "decomposed", "servicecurve"} {
		out := run(t, true, "delaycalc", "-tandem", "3", "-load", "0.7", "-stages", "-backlogs", "-algo", algo)
		golden, err := os.ReadFile(filepath.Join("testdata", "delaycalc-tandem3-"+algo+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(golden) {
			t.Errorf("%s: report differs from testdata:\n got:\n%s\nwant:\n%s", algo, out, golden)
		}
	}
}

func TestDelaycalcSpecAndAlgos(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "net.json")
	doc := `{"servers":[{"name":"a","capacity":1},{"name":"b","capacity":1}],
	 "connections":[{"name":"c","sigma":1,"rho":0.2,"access_rate":1,"path":["a","b"],"deadline":9}]}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"integrated", "decomposed", "servicecurve"} {
		out := run(t, true, "delaycalc", "-spec", spec, "-algo", algo)
		if !strings.Contains(out, "9 OK") {
			t.Errorf("algo %s: deadline status missing:\n%s", algo, out)
		}
	}
}

func TestDelaycalcDOT(t *testing.T) {
	out := run(t, true, "delaycalc", "-tandem", "2", "-dot")
	if !strings.Contains(out, "digraph network") || !strings.Contains(out, "s0 -> s1") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
}

func TestDelaycalcErrors(t *testing.T) {
	run(t, false, "delaycalc")
	run(t, false, "delaycalc", "-tandem", "3", "-algo", "bogus")
	run(t, false, "delaycalc", "-spec", "/nonexistent.json")
}

// TestFiguresSingle runs every figure name the -fig help lists on its own,
// and holds that a name outside that list, a prefix of one included, fails
// before anything runs: non-zero status, nothing on stdout.
func TestFiguresSingle(t *testing.T) {
	help := run(t, true, "figures", "-h")
	_, list, ok := strings.Cut(help, "which figure to produce: ")
	list, _, _ = strings.Cut(list, " (default")
	names := strings.Split(list, ", ")
	if !ok || len(names) < 14 || !strings.Contains(", "+list+",", ", percentiles,") {
		t.Fatalf("-fig help lists %q, want every figure name:\n%s", names, help)
	}
	for _, name := range names {
		if name == "all" {
			continue
		}
		out := run(t, true, "figures", "-fig", name)
		if strings.TrimSpace(out) == "" {
			t.Errorf("-fig %s printed nothing", name)
		}
		if name == "burst" && !strings.Contains(out, "Burstiness invariance") {
			t.Errorf("missing burstiness panel:\n%s", out)
		}
	}
	for _, bad := range []string{"nope", "valid"} {
		stdout, err := exec.Command(filepath.Join(binDir, "figures"), "-fig", bad).Output()
		if err == nil || len(stdout) != 0 {
			t.Errorf("-fig %s: err=%v, stdout %q; want a failure with nothing on stdout", bad, err, stdout)
		}
	}
}

func TestFiguresCSV(t *testing.T) {
	dir := t.TempDir()
	run(t, true, "figures", "-fig", "burst", "-csv", dir)
	data, err := os.ReadFile(filepath.Join(dir, "burstiness.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,") {
		t.Errorf("csv malformed: %q", data[:20])
	}
}

func TestSimulate(t *testing.T) {
	out := run(t, true, "simulate", "-tandem", "2", "-load", "0.6", "-packet", "0.05")
	for _, want := range []string{"conn0", "Integrated", "Decomposed", "simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	run(t, true, "simulate", "-tandem", "2", "-source", "cbr")
	run(t, true, "simulate", "-tandem", "2", "-source", "onoff")
	run(t, false, "simulate", "-tandem", "2", "-source", "warp")
	run(t, false, "simulate")
}

func TestAdmit(t *testing.T) {
	out := run(t, true, "admit", "-servers", "3", "-deadline", "10", "-limit", "40")
	if !strings.Contains(out, "Integrated") || !strings.Contains(out, "admitted") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestFalsifySearchAndReplay(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	out := run(t, true, "falsify",
		"-seed", "1", "-iters", "6", "-restarts", "2", "-packets", "0.05",
		"-scenarios", "tandem2-u50,parkinglot4", "-out", report)
	if !strings.Contains(out, "no contradictions") {
		t.Fatalf("expected survival, got:\n%s", out)
	}
	// Same seed must reproduce the report file byte for byte.
	data1, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	run(t, true, "falsify",
		"-seed", "1", "-iters", "6", "-restarts", "2", "-packets", "0.05",
		"-scenarios", "tandem2-u50,parkinglot4", "-out", report, "-parallel", "4")
	data2, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if string(data1) != string(data2) {
		t.Fatal("same seed produced different report files")
	}
	// A report without contradictions replays trivially.
	out = run(t, true, "falsify", "-replay", report)
	if !strings.Contains(out, "no contradictions to replay") {
		t.Fatalf("unexpected replay output:\n%s", out)
	}
}

func TestFalsifyBadFlags(t *testing.T) {
	run(t, false, "falsify", "-scenarios", "no-such-scenario")
	run(t, false, "falsify", "-analyzers", "nonsense")
	run(t, false, "falsify", "-packets", "zero")
	run(t, false, "falsify", "-replay", "/does/not/exist.json")
}

// TestDelaydAnalyzerMustFitFabric pins that a daemon whose -algo cannot
// analyze its own fabric refuses to boot, naming the analyzer and the
// server, instead of answering every admit with the client's "invalid
// spec"; and that integratedsp, a name of Integrated, boots on the
// incremental path over a static-priority spec and over a FIFO tandem.
func TestDelaydAnalyzerMustFitFabric(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "sp.json")
	doc := `{"servers":[{"name":"a","capacity":1,"discipline":"sp"},{"name":"b","capacity":1,"discipline":"sp"}],
	 "connections":[{"name":"c","sigma":1,"rho":0.2,"priority":1,"path":["a","b"],"deadline":9}]}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, false, "delayd", "-addr", "127.0.0.1:0", "-spec", spec, "-algo", "servicecurve")
	for _, want := range []string{"ServiceCurve", "server 0 is StaticPriority"} {
		if !strings.Contains(out, want) {
			t.Errorf("boot error does not name %q:\n%s", want, out)
		}
	}

	for _, tc := range []struct {
		fabric   []string
		admitted int
	}{{[]string{"-spec", spec}, 1}, {[]string{"-tandem", "3"}, 0}} {
		if stats := bootStats(t, append(tc.fabric, "-algo", "integratedsp")...); !stats.Incremental || stats.Admitted != tc.admitted {
			t.Errorf("%v: /stats = %+v, want incremental with %d connections admitted", tc.fabric, stats, tc.admitted)
		}
	}
}

// delaydStats is the part of /stats bootStats reads.
type delaydStats struct {
	Incremental bool `json:"incremental"`
	Admitted    int  `json:"admitted"`
}

// bootStats starts delayd with args on a free loopback port, reads its
// /stats once it answers, and stops it.
func bootStats(t *testing.T, args ...string) delaydStats {
	t.Helper()
	// Reserve a loopback port for the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var logs strings.Builder
	daemon := exec.Command(filepath.Join(binDir, "delayd"), append([]string{"-addr", addr}, args...)...)
	daemon.Stderr = &logs
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer func() {
		_ = daemon.Process.Signal(syscall.SIGTERM) // fails only on an exited daemon, which the wait below reports
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			daemon.Process.Kill()
			t.Error("delayd did not stop on SIGTERM")
		}
	}()
	var stats delaydStats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/v2/networks/default/stats")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decoding /stats: %v", err)
			}
			return stats
		}
		select {
		case err := <-exited:
			exited <- err
			t.Fatalf("delayd exited before serving: %v\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("delayd never answered /stats: %v\n%s", err, logs.String())
		}
	}
}
