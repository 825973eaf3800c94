package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"delaycalc/internal/server"
	"delaycalc/internal/traffic"
)

// checkerNet is a 4-server diamond with enough admitted connections to
// exercise name collisions and both witness-consistent and
// witness-divergent candidate routes.
func checkerNet() *Network {
	return &Network{
		Servers: []server.Server{
			{Name: "in", Capacity: 1, Discipline: server.FIFO},
			{Name: "up", Capacity: 1, Discipline: server.FIFO},
			{Name: "down", Capacity: 1, Discipline: server.FIFO},
			{Name: "out", Capacity: 1, Discipline: server.FIFO},
		},
		Connections: []Connection{
			{Name: "c0", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0, 1, 3}},
			{Name: "c1", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0, 2, 3}},
		},
	}
}

func extended(base *Network, cand Connection) *Network {
	return &Network{
		Servers:     base.Servers,
		Connections: append(append([]Connection(nil), base.Connections...), cand),
	}
}

// TestCheckerMatchesFullValidate is the contract test: over every kind of
// candidate — valid, self-inconsistent, colliding, off the witness order,
// and cycle-forming — ValidateExtend must agree with the full
// trial.Validate() down to the exact error string.
func TestCheckerMatchesFullValidate(t *testing.T) {
	base := checkerNet()
	k, err := NewChecker(base)
	if err != nil {
		t.Fatal(err)
	}
	ok := Connection{Name: "x", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0, 3}}
	cases := []struct {
		name string
		mut  func(*Connection)
	}{
		{"valid forward route", func(c *Connection) {}},
		{"valid single hop", func(c *Connection) { c.Path = []int{2} }},
		// 2 -> 1 contradicts the cached witness (1 before 2) but the
		// extended graph is still acyclic: the fallback must accept it.
		{"valid off-witness route", func(c *Connection) { c.Path = []int{2, 1} }},
		{"cycle", func(c *Connection) { c.Path = []int{3, 0} }},
		{"duplicate name", func(c *Connection) { c.Name = "c1" }},
		{"negative sigma", func(c *Connection) { c.Bucket.Sigma = -1 }},
		{"rho above access", func(c *Connection) { c.Bucket.Rho = 2 }},
		{"empty path", func(c *Connection) { c.Path = nil }},
		{"path out of range", func(c *Connection) { c.Path = []int{0, 9} }},
		{"repeated server", func(c *Connection) { c.Path = []int{0, 1, 0} }},
		{"negative deadline", func(c *Connection) { c.Deadline = -1 }},
		{"negative access rate", func(c *Connection) { c.AccessRate = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand := ok
			tc.mut(&cand)
			trial := extended(base, cand)
			want := trial.Validate()
			got := k.ValidateExtend(trial)
			if (want == nil) != (got == nil) {
				t.Fatalf("fast path disagrees: got %v, full validate %v", got, want)
			}
			if want != nil && got.Error() != want.Error() {
				t.Fatalf("error text diverged:\n fast: %s\n full: %s", got, want)
			}
		})
	}
}

// TestCheckerNilDegradesToFull pins the nil-receiver contract every call
// site leans on: no checker means the full validation, same answer.
func TestCheckerNilDegradesToFull(t *testing.T) {
	base := checkerNet()
	var k *Checker
	bad := Connection{Name: "c0", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0}}
	trial := extended(base, bad)
	got := k.ValidateExtend(trial)
	want := trial.Validate()
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("nil checker: got %v, want %v", got, want)
	}
	if k.Extend(trial) != nil || k.Shrink(bad) != nil {
		t.Fatal("nil checker must derive nil checkers")
	}
}

// TestCheckerExtendShrinkChain drives a checker through a mixed
// admit/release sequence — including an off-witness admit that forces the
// witness recomputation — re-checking the full-validate agreement after
// every step.
func TestCheckerExtendShrinkChain(t *testing.T) {
	net := checkerNet()
	k, err := NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(cand Connection) {
		t.Helper()
		trial := extended(net, cand)
		if err := k.ValidateExtend(trial); err != nil {
			t.Fatalf("admit %q: %v", cand.Name, err)
		}
		k = k.Extend(trial)
		net = trial
	}
	release := func(name string) {
		t.Helper()
		for i, c := range net.Connections {
			if c.Name == name {
				k = k.Shrink(c)
				net = &Network{
					Servers:     net.Servers,
					Connections: append(append([]Connection(nil), net.Connections[:i]...), net.Connections[i+1:]...),
				}
				return
			}
		}
		t.Fatalf("release %q: not admitted", name)
	}
	probe := func(step string) {
		t.Helper()
		if k == nil {
			t.Fatalf("%s: checker degraded to nil", step)
		}
		// A duplicate of an admitted name must be rejected with the exact
		// full-validate error; a fresh name on a forward route must pass.
		for _, c := range net.Connections {
			dup := c
			trial := extended(net, dup)
			got, want := k.ValidateExtend(trial), trial.Validate()
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Fatalf("%s: dup %q: got %v, want %v", step, c.Name, got, want)
			}
		}
		fresh := Connection{Name: fmt.Sprintf("probe-%s", step),
			Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.01}, AccessRate: 1, Path: []int{0, 3}}
		trial := extended(net, fresh)
		if err := k.ValidateExtend(trial); err != nil {
			t.Fatalf("%s: fresh probe rejected: %v", step, err)
		}
	}

	admit(Connection{Name: "a", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0, 1}})
	probe("after-admit")
	// Off-witness but acyclic (2 -> 1): Extend must recompute the witness,
	// and routes that agree with the NEW order must go back to passing.
	admit(Connection{Name: "b", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{2, 1}})
	probe("after-off-witness-admit")
	// With 2 -> 1 admitted, 1 -> 2 now forms a cycle and must be rejected
	// identically by both paths.
	cyc := Connection{Name: "cyc", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{1, 2}}
	trial := extended(net, cyc)
	got, want := k.ValidateExtend(trial), trial.Validate()
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("cycle after off-witness admit: got %v, want %v", got, want)
	}
	release("a")
	probe("after-release")
	// The released name must be admissible again.
	admit(Connection{Name: "a", Bucket: traffic.TokenBucket{Sigma: 1, Rho: 0.1}, AccessRate: 1, Path: []int{0, 1}})
	probe("after-readmit")

	// A long churn chain takes the persistent name set through many
	// flattenings of its change list: every step admits a fresh name,
	// re-admits one released earlier (which must be accepted) or releases
	// one, and offers a duplicate of a live name (which must be refused
	// exactly as the full validation refuses it).
	rng := rand.New(rand.NewSource(3))
	small := traffic.TokenBucket{Sigma: 1, Rho: 1e-6}
	var released []string
	for step := 0; step < 1000; step++ {
		switch live := len(net.Connections); {
		case live > 40 || (live > 4 && rng.Intn(3) == 0):
			name := net.Connections[rng.Intn(live)].Name
			release(name)
			released = append(released, name)
		case len(released) > 0 && rng.Intn(2) == 0:
			i := rng.Intn(len(released))
			admit(Connection{Name: released[i], Bucket: small, AccessRate: 1, Path: []int{0, 3}})
			released = append(released[:i], released[i+1:]...)
		default:
			admit(Connection{Name: fmt.Sprintf("churn%d", step), Bucket: small, AccessRate: 1, Path: []int{0, 1, 3}})
		}
		dup := net.Connections[rng.Intn(len(net.Connections))]
		trial := extended(net, dup)
		got, want := k.ValidateExtend(trial), trial.Validate()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("step %d: duplicate %q: got %v, want %v", step, dup.Name, got, want)
		}
		if step%100 == 99 {
			probe(fmt.Sprintf("churn-%d", step))
		}
	}
}
