package admission

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/topo"
	"delaycalc/internal/traffic"
)

// raceBuild reports whether the test binary runs under the race detector,
// where sync.Pool drops a random share of its Puts: the analysis scratch is
// re-grown at random, so the allocation tests log their numbers there and
// judge nothing.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxExcessGrowth is how many more bytes an admit or release may allocate
// beyond the analysis it runs at 600 standing connections than at 150. The
// affected-set fixpoint keeps one byte per standing connection (450 more
// here, rounded up to the allocator's size class); one copy of the
// admitted set would cost 96 bytes per connection, 43,200 more.
const maxExcessGrowth = 1024

// TestEngineOpBytesIndependentOfNetworkSize is the admission twin of
// analysis.TestExtendAllocsIndependentOfNetworkSize: what an admit and a
// release allocate beyond their baseline's ExtendContext and ShrinkContext
// on the same candidate must not follow the number of connections admitted
// elsewhere. The trial's connection list is the one copy of the set an
// operation makes, and the analysis pays for it; the engine's working state,
// snapshot and decision alias it, and its router and envelope plan cost the
// same at any population.
func TestEngineOpBytesIndependentOfNetworkSize(t *testing.T) {
	fabric, err := topo.DisjointBlocks(2, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	conn := func(name string, path ...int) topo.Connection {
		return topo.Connection{Name: name, Bucket: traffic.TokenBucket{Sigma: 1, Rho: 1e-4}, AccessRate: 1, Path: path, Deadline: 1000}
	}
	cand := conn("cand", 4, 5)
	// One core: a dependency level's units then run on the calling
	// goroutine, and no worker start is counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// excess returns the fewest bytes one admit and one release of cand
	// allocated beyond the analysis they ran, over six rounds.
	excess := func(standing int) (admit, release float64) {
		// The standing population sits on block 0; block 1 holds the same
		// twelve connections at either size, and the candidate joins them.
		var conns []topo.Connection
		for i := 0; i < standing; i++ {
			conns = append(conns, conn(fmt.Sprintf("s%d", i), i%2, i%2+1))
		}
		for i := 0; i < 12; i++ {
			conns = append(conns, conn(fmt.Sprintf("t%d", i), 3+i%2, 4+i%2))
		}
		eng := newEngine(t, fabric.Servers, analysis.Integrated{}, 1)
		preload(eng, conns)
		if err := eng.WarmBaseline(); err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		admit, release = math.Inf(1), math.Inf(1)
		for r := -1; r < 6; r++ { // round -1 warms the pools
			base := eng.shards[0].snap.Load().cachedBaseline()
			extend := allocBytes(func() {
				if _, err := base.ExtendContext(bg, cand); err != nil {
					t.Fatal(err)
				}
			})
			admitted := allocBytes(func() {
				if d, err := eng.Admit(bg, cand); err != nil || !d.Admitted {
					t.Fatalf("admit at %d standing: %+v err=%v", standing, d, err)
				}
			})
			base = eng.shards[0].snap.Load().cachedBaseline()
			if base == nil || base.Connections() != standing+13 {
				t.Fatal("the admit promoted no baseline over the trial")
			}
			shrink := allocBytes(func() {
				if _, err := base.ShrinkContext(bg, standing+12); err != nil {
					t.Fatal(err)
				}
			})
			released := allocBytes(func() {
				if info, ok, err := eng.Release(bg, cand.Name); err != nil || !ok || !info.Incremental {
					t.Fatalf("release at %d standing: %+v ok=%v err=%v", standing, info, ok, err)
				}
			})
			if r >= 0 {
				admit = min(admit, float64(admitted)-float64(extend))
				release = min(release, float64(released)-float64(shrink))
			}
		}
		return admit, release
	}
	admitSmall, releaseSmall := excess(150)
	admitLarge, releaseLarge := excess(600)
	t.Logf("bytes beyond the analysis: admit %.0f at 150 standing connections, %.0f at 600; release %.0f, %.0f",
		admitSmall, admitLarge, releaseSmall, releaseLarge)
	if raceBuild() {
		return
	}
	if admitLarge-admitSmall > maxExcessGrowth {
		t.Errorf("admit allocates %.0f more bytes beyond ExtendContext at 600 connections than at 150 (ceiling %d)",
			admitLarge-admitSmall, maxExcessGrowth)
	}
	if releaseLarge-releaseSmall > maxExcessGrowth {
		t.Errorf("release allocates %.0f more bytes beyond ShrinkContext at 600 connections than at 150 (ceiling %d)",
			releaseLarge-releaseSmall, maxExcessGrowth)
	}
}
