package admission

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
)

// connsChecksum hashes every field of a connection list the analysis reads.
func connsChecksum(conns []topo.Connection) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range conns {
		h.Write([]byte(c.Name))
		for _, f := range []float64{c.Bucket.Sigma, c.Bucket.Rho, c.AccessRate, c.Rate, c.Deadline} {
			word(math.Float64bits(f))
		}
		word(uint64(c.Priority))
		word(uint64(len(c.Path)))
		for _, s := range c.Path {
			word(uint64(s))
		}
	}
	return h.Sum64()
}

// TestPinnedSnapshotsSurviveWriters is the -race stress for the one shared
// copy of the admitted set: a snapshot, the working state of every envelope
// evaluated from it and its baseline all alias one connection list, and
// every trial derived from it shares its prefix. Dry-run readers on pinned
// snapshots run beside a writer doing admits, releases and envelopes that
// shrink or compact the baseline, on a one-shard and a two-shard engine.
// Each reader's pinned list must read the same before and after its test,
// and its decision must equal Controller's over that list, bounds bit for
// bit.
func TestPinnedSnapshotsSurviveWriters(t *testing.T) {
	net, err := topo.DisjointBlocks(2, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Connections {
		net.Connections[i].Deadline = 1000
	}
	// like is a fresh light connection on block b's first route.
	half := len(net.Connections) / 2
	like := func(b int, name string, deadline float64) topo.Connection {
		c := net.Connections[b*half]
		c.Name, c.Deadline = name, deadline
		c.Bucket.Rho /= 8
		return c
	}
	analyzer := analysis.Integrated{}

	run := func(t *testing.T, w *ShardedEngine) {
		// pin is the snapshot of the shard TestBatch would route cand to.
		pin := func(cand topo.Connection) *snapshot {
			w.router.mu.Lock()
			shard, _ := w.router.route(cand.Path)
			w.router.mu.Unlock()
			return w.shards[shard].snap.Load()
		}
		for _, c := range net.Connections {
			if br, err := w.ApplyBatch(bg, []Op{{Kind: OpAdmit, Candidate: c}}); err != nil || !br.Results[0].Decision.Admitted {
				t.Fatalf("setup admit %s: err=%v", c.Name, err)
			}
		}
		var done atomic.Bool
		var probes, admitted atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			var live []string
			next := 0
			admit := func() Op {
				name := fmt.Sprintf("w%d", next)
				next++
				live = append(live, name)
				return Op{Kind: OpAdmit, Candidate: like(next%2, name, 1000)}
			}
			release := func() Op {
				name := live[0]
				live = live[1:]
				return Op{Kind: OpRelease, Name: name}
			}
			for i := 0; i < 160; i++ {
				var ops []Op
				// A release before an admit shrinks the baseline; the first
				// of two releases in a row compacts it.
				switch {
				case i%4 == 0 || len(live) < 2:
					ops = []Op{admit()}
				case i%4 == 1:
					ops = []Op{release()}
				case i%4 == 2:
					ops = []Op{release(), admit(), admit()}
				default:
					ops = []Op{release(), release(), admit()}
				}
				if _, err := w.ApplyBatch(bg, ops); err != nil {
					t.Errorf("writer envelope %d: %v", i, err)
					return
				}
			}
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i == 0 || !done.Load(); i++ {
					// A tight deadline on every other probe mixes rejections in.
					deadline := 1000.0
					if i%2 == 1 {
						deadline = 2
					}
					cand := like((r+i)%2, fmt.Sprintf("probe%d", r), deadline)
					snap := pin(cand)
					before := connsChecksum(snap.admitted)
					got, gotErr := snap.test(bg, cand)
					if after := connsChecksum(snap.admitted); after != before {
						t.Errorf("reader %d: snapshot v%d's admitted list changed under its test", r, snap.version)
						return
					}
					ctrl, err := New(net.Servers, analyzer)
					if err != nil {
						t.Error(err)
						return
					}
					ctrl.admitted = append([]topo.Connection(nil), snap.admitted...)
					want, wantErr := ctrl.Test(cand)
					if (gotErr == nil) != (wantErr == nil) {
						t.Errorf("reader %d: error diverged: controller %v, engine %v", r, wantErr, gotErr)
						return
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("reader %d probe %d on v%d: decision diverged:\n  controller %+v\n  engine     %+v", r, i, snap.version, want, got)
						return
					}
					probes.Add(1)
					if got.Admitted {
						admitted.Add(1)
					}
					if connsChecksum(snap.admitted) != before {
						t.Errorf("reader %d: snapshot v%d's admitted list changed after its test", r, snap.version)
						return
					}
					if _, err := w.TestBatch(bg, []topo.Connection{cand}); err != nil {
						t.Errorf("reader %d: TestBatch: %v", r, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		t.Logf("%d probes, %d admitted", probes.Load(), admitted.Load())
	}

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			run(t, newEngine(t, net.Servers, analyzer, shards))
		})
	}
}
