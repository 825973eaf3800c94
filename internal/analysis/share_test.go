package analysis

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"delaycalc/internal/minplus"
	"delaycalc/internal/topo"
)

// Equal envelopes share storage through a traced run: interned source
// envelopes, the arena's shared shifts, one trace copy per distinct
// envelope, SumN's grouping of repeated operands. None of that may move a
// bound: every analysis of a network whose equal envelopes share storage
// must be, bit for bit, the analysis of the same network with every source
// envelope on storage of its own.

// duplicated returns net with every connection repeated k times on its
// route, the copies adjacent (connection c becomes c*k .. c*k+k-1) and each
// carrying 1/k of the rate and the reservation, so the load and the
// reservations per server stay as they were.
func duplicated(net *topo.Network, k int) *topo.Network {
	out := &topo.Network{Servers: net.Servers}
	for _, c := range net.Connections {
		for j := 0; j < k; j++ {
			cp := c
			cp.Name = fmt.Sprintf("%s.%d", c.Name, j)
			cp.Bucket.Rho /= float64(k)
			cp.Rate /= float64(k)
			out.Connections = append(out.Connections, cp)
		}
	}
	return out
}

// privateEnvelopes returns a copy of net in which every connection's
// source envelope is a private clone of its own: the explicit envelope is
// the one SourceEnvelope built, access-rate cap included, so the access
// rate is cleared. The network must not be rescaled by the analysis
// (normalizeNetwork): rescaling an explicit envelope rounds differently
// from rescaling a bucket.
func privateEnvelopes(net *topo.Network) *topo.Network {
	out := copyNetwork(net)
	for i := range out.Connections {
		env := out.Connections[i].SourceEnvelope().Clone()
		out.Connections[i].Envelope = &env
		out.Connections[i].AccessRate = 0
	}
	return out
}

// sharesEnvelopes reports whether two connections of net start on one
// envelope's storage.
func sharesEnvelopes(net *topo.Network) bool {
	for i := range net.Connections {
		for j := i + 1; j < len(net.Connections); j++ {
			if net.Connections[i].SourceEnvelope().SameStorage(net.Connections[j].SourceEnvelope()) {
				return true
			}
		}
	}
	return false
}

// sharedEnvelopeCorpus is FIFO networks whose connections come from a few
// token buckets, as every builder's do: paper tandems and disjoint blocks,
// plain and with every connection repeated, and random feed-forward
// networks with repeated connections.
func sharedEnvelopeCorpus(t *testing.T) map[string]*topo.Network {
	t.Helper()
	nets := map[string]*topo.Network{}
	for _, tc := range []struct {
		n    int
		load float64
	}{{4, 0.8}, {6, 0.9}} {
		net, err := topo.PaperTandem(tc.n, tc.load)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("tandem%d-u%g", tc.n, tc.load)] = net
		nets[fmt.Sprintf("dup3-tandem%d-u%g", tc.n, tc.load)] = duplicated(net, 3)
	}
	blocks, err := topo.DisjointBlocks(3, 5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	nets["blocks3x5"] = blocks
	nets["dup2-blocks3x5"] = duplicated(blocks, 2)
	for seed := int64(1); seed <= 3; seed++ {
		net, err := topo.RandomFeedforward(8, 10, 0.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("dup3-ff8x10-seed%d", seed)] = duplicated(net, 3)
	}
	return nets
}

// requireSameAnalysis runs one analysis on the shared and the private
// network and requires the same error or bit-identical results.
func requireSameAnalysis(t *testing.T, label string, shared, private *topo.Network, run func(*topo.Network) (*Result, error)) {
	t.Helper()
	want, wantErr := run(private)
	got, gotErr := run(shared)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: private envelopes: error %v, shared: error %v", label, wantErr, gotErr)
	}
	if wantErr == nil {
		requireSameResult(t, label, want, got)
	}
}

// TestSharedEnvelopesMatchPrivate drives every analyzer, through every
// entry point (Analyze, NewBaseline, a trial, a release), over networks
// whose equal envelopes share storage and over their private-envelope
// twins. The shared side runs its trials concurrently on one baseline, so
// under -race the shared envelopes are read by several trials and their
// fan-out workers at once.
func TestSharedEnvelopesMatchPrivate(t *testing.T) {
	fifo := sharedEnvelopeCorpus(t)
	sp, gr := map[string]*topo.Network{}, map[string]*topo.Network{}
	for name, net := range fifo {
		sp[name] = spify(copyNetwork(net), len(name)%2 == 0)
		gr[name] = grified(net)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		a    Analyzer
		nets map[string]*topo.Network
	}{
		{Decomposed{}, fifo},
		{Integrated{}, fifo},
		{Integrated{}, sp},
		{ServiceCurve{}, fifo},
		{GuaranteedRateNetworkCurve{}, gr},
	} {
		a := tc.a
		for name, shared := range tc.nets {
			label := fmt.Sprintf("%s/%s", a.Name(), name)
			if !sharesEnvelopes(shared) {
				t.Fatalf("%s: no two connections share a source envelope", label)
			}
			private := privateEnvelopes(shared)
			if sharesEnvelopes(private) {
				t.Fatalf("%s: private twin shares a source envelope", label)
			}
			requireSameAnalysis(t, label+": Analyze", shared, private, a.Analyze)
			requireSameAnalysis(t, label+": NewBaseline", shared, private, func(net *topo.Network) (*Result, error) {
				b, err := a.NewBaseline(net)
				if err != nil {
					return nil, err
				}
				return b.Result(), nil
			})
			release := len(shared.Connections) / 2
			requireSameAnalysis(t, label+": ShrinkContext", shared, private, func(net *topo.Network) (*Result, error) {
				b, err := a.NewBaseline(net)
				if err != nil {
					return nil, err
				}
				ext, err := b.ShrinkContext(ctx, release)
				if err != nil {
					return nil, err
				}
				return ext.Result(), nil
			})
			// Trials: the last connection joins a baseline of the others.
			trial := func(net *topo.Network, copies int) ([]*Result, error) {
				last := len(net.Connections) - 1
				b, err := a.NewBaseline(&topo.Network{Servers: net.Servers, Connections: net.Connections[:last]})
				if err != nil {
					return nil, err
				}
				out, errs := make([]*Result, copies), make([]error, copies)
				var wg sync.WaitGroup
				for w := range out {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tr, err := b.NewTrial(net.Connections[last])
						if err == nil {
							var ext *Extension
							if ext, err = tr.Run(ctx); err == nil {
								out[w] = ext.Result()
							}
						}
						errs[w] = err
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						return nil, err
					}
				}
				return out, nil
			}
			want, wantErr := trial(private, 1)
			got, gotErr := trial(shared, 3)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s: trial: private envelopes: error %v, shared: error %v", label, wantErr, gotErr)
			}
			for w := range got {
				requireSameResult(t, fmt.Sprintf("%s: trial %d", label, w), want[0], got[w])
			}
		}
	}
}

// TestUnitTraceCopiesEachEnvelopeOnce pins recordUnit's sharing: on a
// tandem whose every connection is repeated, the copies of a connection
// leave every unit on one envelope, so a unit's trace holds one copy of it
// for all of them, not one per crossing connection — in the baseline and in
// the units a trial recomputes.
func TestUnitTraceCopiesEachEnvelopeOnce(t *testing.T) {
	const k = 3
	tandem, err := topo.PaperTandem(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	net := duplicated(tandem, k)
	last := len(net.Connections) - 1
	for _, a := range []Analyzer{Decomposed{}, Integrated{}} {
		b, err := a.NewBaseline(net)
		if err != nil {
			t.Fatal(err)
		}
		base, err := a.NewBaseline(&topo.Network{Servers: net.Servers, Connections: net.Connections[:last]})
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.ExtendContext(context.Background(), net.Connections[last])
		if err != nil {
			t.Fatal(err)
		}
		if ext.Stats.RecomputedUnits == 0 {
			t.Fatalf("%s: the trial recomputed no unit", a.Name())
		}
		for _, run := range []struct {
			name string
			b    *Baseline
		}{{"baseline", b}, {"trial", ext.Promote()}} {
			for _, u := range run.b.units {
				tr := run.b.trace[u.servers[0]]
				var distinct []minplus.Curve
				for i, ct := range tr.post {
					first := tr.post[i-i%k] // the unit's entry for copy 0
					if ct.conn/k != first.conn/k {
						t.Fatalf("%s %s unit %v: copies of a connection not adjacent in the trace", a.Name(), run.name, u.servers)
					}
					if !ct.env.SameStorage(first.env) {
						t.Errorf("%s %s unit %v: connection %d holds its own copy of connection %d's envelope",
							a.Name(), run.name, u.servers, ct.conn, first.conn)
					}
					known := false
					for _, d := range distinct {
						known = known || d.SameStorage(ct.env)
					}
					if !known {
						distinct = append(distinct, ct.env)
					}
				}
				if k*len(distinct) > len(tr.post) {
					t.Errorf("%s %s unit %v: %d envelope copies for %d connections, %d copies each",
						a.Name(), run.name, u.servers, len(distinct), len(tr.post), k)
				}
			}
		}
	}
}
