package main

import (
	"math/rand"
	"testing"
	"time"
)

// churnHash drives a churn stream with a fixed decision rule and returns
// the hash of everything it issued.
func churnHash(seed int64, n int) uint64 {
	rng := rand.New(rand.NewSource(subSeed(seed, 0, "client")))
	gen := newConnGen(rng, "c", tandemServers(8), 0.002, 100)
	s := newChurnStream(rng, gen, serveChurn.mix, []string{"pf1", "pf2", "pf3"})
	for i := 0; i < n; i++ {
		op := s.next()
		admitted := make([]bool, len(op.admits))
		for j := range admitted {
			admitted[j] = (i+j)%5 != 0
		}
		s.settle(op, admitted)
	}
	return s.sum.Sum64()
}

func readHash(seed int64) uint64 {
	rng := rand.New(rand.NewSource(subSeed(seed, 0, "schedule")))
	gen := newConnGen(rng, "r", tandemServers(8), 0.002, 100)
	_, sum := readSchedule(rng, gen, 300, 200, [][]byte{[]byte("h0"), []byte("h1")}, [][]byte{[]byte("c0"), []byte("c1")})
	return sum
}

func TestSeedFixesTheSequence(t *testing.T) {
	if a, b := churnHash(1, 500), churnHash(1, 500); a != b {
		t.Errorf("churn: seed 1 gave %x then %x", a, b)
	}
	if a, b := churnHash(1, 500), churnHash(2, 500); a == b {
		t.Errorf("churn: seeds 1 and 2 gave the same sequence %x", a)
	}
	if a, b := readHash(1), readHash(1); a != b {
		t.Errorf("read: seed 1 gave %x then %x", a, b)
	}
	if a, b := readHash(1), readHash(2); a == b {
		t.Errorf("read: seeds 1 and 2 gave the same schedule %x", a)
	}
	if subSeed(1, 0, "a") == subSeed(1, 1, "a") || subSeed(1, 0, "a") == subSeed(1, 0, "b") {
		t.Error("rounds or streams share a generator seed")
	}
}

func TestReadScheduleSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gen := newConnGen(rng, "r", tandemServers(8), 0.002, 100)
	ops, _ := readSchedule(rng, gen, 400, 200, [][]byte{nil}, nil)
	if last := ops[len(ops)-1].due; last != 2*time.Second {
		t.Errorf("400 requests at 200/s end at %v, want 2s", last)
	}
	classes := map[string]int{}
	admits := 0
	for i, op := range ops {
		if i > 0 && op.due < ops[i-1].due {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		classes[op.class]++
		if op.class == "write" && op.admit {
			admits++
		}
	}
	if w := classes["write"]; admits != (w+1)/2 {
		t.Errorf("%d of %d writes admit, want them to alternate starting with an admit", admits, w)
	}
	for _, class := range []string{"test", "list", "analyze", "write"} {
		if classes[class] == 0 {
			t.Errorf("no %s request in 400", class)
		}
	}
}

// fakeClock advances only when told to: by a sleep, or by a request that
// takes time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// TestOpenLoopChargesAStallToLaterRequests: on one connection a response
// that stalls delays the requests due behind it, and their latency, taken
// from their due times, must show it.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	service := []time.Duration{ms, 25 * ms, ms, ms, ms} // request 1 stalls
	var order []int
	lat, lag, ok := openLoop(clk, due, 1, func(_, i int) func() bool {
		order = append(order, i)
		clk.now += service[i]
		return func() bool { return i != 3 }
	})
	want := []time.Duration{ms, 25 * ms, 16 * ms, 7 * ms, ms}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("request %d: latency %v from its due time, want %v", i, lat[i], want[i])
		}
		if lag[i] != 0 {
			t.Errorf("request %d: generator lag %v on a clock that wakes on time", i, lag[i])
		}
		if order[i] != i {
			t.Errorf("request %d was sent in position %d", order[i], i)
		}
		if ok[i] != (i != 3) {
			t.Errorf("request %d: ok = %v", i, ok[i])
		}
	}
}
