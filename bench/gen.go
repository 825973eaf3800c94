package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"delaycalc/internal/netspec"
	"delaycalc/internal/server"
)

// subSeed derives the seed of one generator stream from the run's seed,
// the round and a label, so that every stream of every round is fixed by
// -seed alone and no two streams share a sequence.
func subSeed(seed int64, round int, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s", seed, round, stream)
	return int64(h.Sum64() >> 1)
}

// deck deals its cards in a seeded random order and reshuffles when it
// runs out. Drawing from a deck instead of drawing independently keeps
// every stretch of a sequence close to its mix: the order is the seed's,
// the proportions are fixed. Without it the admitted population of a churn
// round is a random walk, and with it the cost of every later operation.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck holds card i count[i] times.
func newDeck(rng *rand.Rand, count ...int) *deck {
	d := &deck{rng: rng}
	for card, n := range count {
		for ; n > 0; n-- {
			d.cards = append(d.cards, card)
		}
	}
	return d
}

func (d *deck) draw() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	card := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return card
}

// connGen deals candidate connections on contiguous 2- and 3-hop
// sub-paths of a server list given in path order: the two lengths in
// equal shares and, for each length, every start position equally often.
type connGen struct {
	prefix   string
	hops     []json.RawMessage // quoted server names, in path order
	length   *deck             // card i: i+2 hops
	start    [2]*deck          // per length, the first hop
	rho      float64
	deadline float64
	seq      int
}

func newConnGen(rng *rand.Rand, prefix string, servers []server.Server, rho, deadline float64) *connGen {
	g := &connGen{prefix: prefix, rho: rho, deadline: deadline, length: newDeck(rng, 1, 1)}
	for _, s := range servers {
		raw, _ := json.Marshal(s.Name) // a string always marshals
		g.hops = append(g.hops, raw)
	}
	for i := range g.start {
		ones := make([]int, max(1, len(servers)-(i+2)+1))
		for j := range ones {
			ones[j] = 1
		}
		g.start[i] = newDeck(rng, ones...)
	}
	return g
}

func (g *connGen) next() netspec.ConnectionSpec {
	g.seq++
	l := g.length.draw()
	n, start := min(l+2, len(g.hops)), g.start[l].draw()
	return netspec.ConnectionSpec{
		Name:       fmt.Sprintf("%s%d", g.prefix, g.seq),
		Sigma:      1,
		Rho:        g.rho,
		AccessRate: 1,
		Path:       g.hops[start : start+n : start+n],
		Deadline:   g.deadline,
	}
}

// churnMix is the class weighting of a closed-loop churn client and the
// shape of its batch envelope (releases first, then admits).
type churnMix struct {
	admit, release, batch      int
	batchReleases, batchAdmits int
}

// churnOp is one request of a churn client.
type churnOp struct {
	class    string // admit | release | batch
	releases []string
	admits   []netspec.ConnectionSpec
}

// churnStream is one client's seeded request sequence. The class order,
// the candidates and the release picks are all drawn from rng; a release
// names a connection the client itself admitted, so the only input from
// the program under test is which candidates it accepted (settle), and
// the sequence repeats exactly as long as those decisions do.
type churnStream struct {
	rng     *rand.Rand
	gen     *connGen
	mix     churnMix
	classes *deck // 0 admit, 1 release, 2 batch
	pool    []string
	sum     hash.Hash64 // over every request issued and every decision
}

func newChurnStream(rng *rand.Rand, gen *connGen, mix churnMix, pool []string) *churnStream {
	return &churnStream{rng: rng, gen: gen, mix: mix, classes: newDeck(rng, mix.admit, mix.release, mix.batch),
		pool: append([]string(nil), pool...), sum: fnv.New64a()}
}

// take removes and returns a seeded pick from the client's own pool.
func (s *churnStream) take() string {
	i := s.rng.Intn(len(s.pool))
	name := s.pool[i]
	last := len(s.pool) - 1
	s.pool[i] = s.pool[last]
	s.pool = s.pool[:last]
	return name
}

func (s *churnStream) next() churnOp {
	op := churnOp{class: [...]string{"admit", "release", "batch"}[s.classes.draw()]}
	if op.class == "release" && len(s.pool) == 0 {
		op.class = "admit" // nothing of its own left to release
	}
	switch op.class {
	case "admit":
		op.admits = []netspec.ConnectionSpec{s.gen.next()}
	case "release":
		op.releases = []string{s.take()}
	case "batch":
		for i := 0; i < s.mix.batchReleases && len(s.pool) > 0; i++ {
			op.releases = append(op.releases, s.take())
		}
		for i := 0; i < s.mix.batchAdmits; i++ {
			op.admits = append(op.admits, s.gen.next())
		}
	}
	fmt.Fprintf(s.sum, "%s;", op.class)
	for _, name := range op.releases {
		fmt.Fprintf(s.sum, "-%s;", name)
	}
	for i := range op.admits {
		hashSpec(s.sum, &op.admits[i])
	}
	return op
}

// settle records which of the op's candidates the daemon accepted; the
// decisions are part of the sequence hash.
func (s *churnStream) settle(op churnOp, admitted []bool) {
	fmt.Fprintf(s.sum, "=%v;", admitted)
	for i, ok := range admitted {
		if ok {
			s.pool = append(s.pool, op.admits[i].Name)
		}
	}
}

func hashSpec(h hash.Hash64, c *netspec.ConnectionSpec) {
	fmt.Fprintf(h, "+%s,%g,%g,%g", c.Name, c.Rho, c.Deadline, c.Sigma)
	for _, hop := range c.Path {
		h.Write(hop)
	}
	h.Write([]byte{';'})
}

// readOp is one scheduled request of the open-loop read workload.
type readOp struct {
	class string // test | list | analyze | write
	due   time.Duration
	cand  netspec.ConnectionSpec // test; write when admit is set
	admit bool                   // write: admit cand, else release the oldest own connection
	body  []byte                 // analyze: the request body
}

// readMix weights test : list : analyze : write.
var readMix = [4]int{5, 3, 1, 1}

// readHotShare is how many of five analyze requests name a hot spec.
const readHotShare = 4

// readSchedule draws n requests on a Poisson schedule of the given rate,
// stretched so that the last one is due at exactly n/rate: every round
// then offers the same load over the same span, whatever the seed. hot and
// cold are analyze request bodies: four analyze requests in five take a
// hot one, the fifth the next unused cold one.
func readSchedule(rng *rand.Rand, gen *connGen, n int, rate float64, hot, cold [][]byte) ([]readOp, uint64) {
	sum := fnv.New64a()
	ops := make([]readOp, n)
	at := 0.0 // in mean inter-arrival times
	admit := true
	nextCold := 0
	classes := newDeck(rng, readMix[:]...)
	warmth := newDeck(rng, 5-readHotShare, readHotShare) // 0 cold, 1 hot
	arrivals := make([]float64, n)
	for i := range arrivals {
		at += rng.ExpFloat64()
		arrivals[i] = at
	}
	span := float64(n) / rate / at
	for i := range ops {
		op := readOp{due: time.Duration(arrivals[i] * span * float64(time.Second))}
		switch classes.draw() {
		case 0:
			op.class = "test"
			op.cand = gen.next()
		case 1:
			op.class = "list"
		case 2:
			op.class = "analyze"
			if warmth.draw() == 1 || nextCold == len(cold) {
				op.body = hot[rng.Intn(len(hot))]
			} else {
				op.body = cold[nextCold]
				nextCold++
			}
		default:
			op.class = "write"
			op.admit = admit
			if admit {
				op.cand = gen.next()
			}
			admit = !admit
		}
		fmt.Fprintf(sum, "%s@%d;", op.class, op.due)
		if op.cand.Name != "" {
			hashSpec(sum, &op.cand)
		}
		sum.Write(op.body)
		ops[i] = op
	}
	return ops, sum.Sum64()
}
