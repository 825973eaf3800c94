package cliutil

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"delaycalc/internal/service"
)

func TestLoadNetworkTandem(t *testing.T) {
	net, err := LoadNetwork("", 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Servers) != 3 || len(net.Connections) != 7 {
		t.Errorf("unexpected tandem: %d servers, %d connections", len(net.Servers), len(net.Connections))
	}
}

func TestLoadNetworkSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	doc := `{"servers":[{"name":"a","capacity":1}],"connections":[{"name":"c","sigma":1,"rho":0.1,"path":["a"]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := LoadNetwork(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Servers) != 1 || net.Connections[0].Name != "c" {
		t.Errorf("unexpected spec network: %+v", net)
	}
}

func TestLoadNetworkErrors(t *testing.T) {
	if _, err := LoadNetwork("", 0, 0); err == nil {
		t.Error("expected error for no inputs")
	}
	if _, err := LoadNetwork("x.json", 3, 0.5); err == nil {
		t.Error("expected error for both inputs")
	}
	if _, err := LoadNetwork(filepath.Join(t.TempDir(), "missing.json"), 0, 0); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestPickAnalyzer runs the command-line path end to end: every name the
// CLIs accept resolves through the service registry and analyzes the
// network LoadNetwork built (integratedsp, a name of Integrated, too), and
// unknown names are refused.
func TestPickAnalyzer(t *testing.T) {
	net, err := LoadNetwork("", 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"integrated":   "Integrated",
		"INT":          "Integrated",
		"decomposed":   "Decomposed",
		"dec":          "Decomposed",
		"servicecurve": "ServiceCurve",
		"sc":           "ServiceCurve",
		"gr":           "GuaranteedRate/NetworkServiceCurve",
		"integratedsp": "Integrated",
		" Integrated ": "Integrated",
	}
	for in, want := range cases {
		a, err := service.PickAnalyzer(in)
		if err != nil {
			t.Errorf("PickAnalyzer(%q): %v", in, err)
			continue
		}
		if a.Name() != want {
			t.Errorf("PickAnalyzer(%q) = %s, want %s", in, a.Name(), want)
		}
		res, err := a.Analyze(net)
		if err != nil {
			t.Errorf("%s on the 3-switch tandem: %v", want, err)
			continue
		}
		for i, b := range res.Bounds {
			if !(b > 0) || math.IsInf(b, 1) {
				t.Errorf("%s: connection %d bound %v, want finite and positive", want, i, b)
			}
		}
	}
	if _, err := service.PickAnalyzer("fifo"); err == nil {
		t.Error("expected error for unknown analyzer name")
	}
	if _, err := service.PickAnalyzer(""); err == nil {
		t.Error("expected error for unknown analyzer name")
	}
}
