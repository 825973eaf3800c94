package analysis

import (
	"math"
	"sort"

	"delaycalc/internal/minplus"
)

// This file holds the one residual service curve of the package — the only
// place cross traffic is subtracted from a service curve — and its theta
// candidates. A FIFO multiplexor that offers the aggregate it serves the
// service curve beta offers a flow (or sub-aggregate) of that aggregate,
// whose competing traffic is bounded by alphaCross, the curve
//
//	beta_theta(t) = [beta(t) - alphaCross(t - theta)]^+  for t > theta,  0 otherwise,
//
// for every theta >= 0 (Cruz's induced FIFO curves; Proposition 6.2.1 in
// Le Boudec & Thiran). Small theta emphasizes rate, large theta emphasizes
// latency; every member of the family yields a sound bound, so optimizing
// over a finite candidate set of thetas is always safe. Who passes what:
// Integrated serves at the line rate, beta = Rate(C); IntegratedSP serves
// each class, FIFO within itself, the rate-latency leftover of the more
// urgent classes (spRateLatencyGuarantee); at theta = 0 it is ServiceCurve's
// blind leftover against all other connections and Decomposed's
// static-priority leftover against the more urgent classes, which is exact
// for a preemptive server. FIFO and static priority are the Delta = 0 and
// Delta = +-inf rows of one residual (Ghiassi-Farrokhfal / Liebeherr /
// Burchard, PAPERS.md); the finite-Delta rows are ROADMAP item 7.
//
// minplus.Arena.Residual builds a member in one forward sweep over beta's
// breakpoints past theta and alphaCross's shifted by theta, clipping the
// difference at 0, and one reverse scan for its monotone closure
// inf_{s >= t}, gate included. The closure at t > theta reads only values
// at s >= t, so closing after the gate is exact, and the kernel takes any
// non-decreasing beta and alphaCross: no concavity test, no fallback. The
// delayed cross burst is a downward jump of the difference at theta; the
// sweep reads it as value then right limit off the point arrays, and the
// closure charges it, so for theta >= sigma/C the bound keeps the burst.

// residual is that kernel, drawn from the arena (heap when ar is nil). The
// hot analysis paths build residual families per theta candidate; keeping
// them arena-backed keeps the steady-state search allocation-free.
func residual(ar *minplus.Arena, beta, alphaCross minplus.Curve, theta float64) minplus.Curve {
	return ar.Residual(beta, alphaCross, theta)
}

// thetaCandidatesArena proposes a finite set of theta parameters for the
// residual family at a server of the given capacity with the given cross
// envelope: structural values derived from the cross curve's breakpoints
// (where the optimum of piecewise-linear problems lives) plus eight
// even steps up to the server's local delay. The result is sorted and
// exact-duplicate-free, drawn from the arena (heap when ar is nil).
func thetaCandidatesArena(ar *minplus.Arena, capacity float64, cross minplus.Curve, scale float64) []float64 {
	out := ar.Floats(2*cross.NumPoints() + 10)
	out = append(out, 0)
	add := func(v float64) {
		if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	for i := 0; i < cross.NumPoints(); i++ {
		p := cross.PointAt(i)
		add(p.X)
		add(p.Y / capacity)
	}
	// Burst-clearing time of the cross traffic at full capacity.
	add(cross.EvalRight(0) / capacity)
	if scale > 0 {
		for k := 1; k <= 8; k++ {
			add(scale * float64(k) / 8)
		}
	}
	// Sorted so that downstream search strategies (coordinate descent on
	// long chains) visit candidates in a deterministic order; the pair
	// enumeration is order-independent either way.
	sort.Float64s(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
