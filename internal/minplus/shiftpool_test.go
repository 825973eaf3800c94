package minplus

import (
	"math"
	"math/rand"
	"testing"
)

// TestShiftPoolMatchesShiftLeft chains shifts through a pool whose slots are
// sized to their first curves, as an analysis's propagation does, and holds
// every result to the heap ShiftLeft bit for bit, with the slot's previous
// result and the neighbouring slots left intact. The curves are the
// residual tests' cross family — buckets, staircases, random curves with
// interior jumps — plus two steep curves, and the shifts land on
// breakpoints, between them, past the last one, and within tolerance of 0,
// where a steep curve's right limit lengthens it and its slot spills.
func TestShiftPoolMatchesShiftLeft(t *testing.T) {
	family := func(rng *rand.Rand) []Curve {
		return append(residualCrosses(rng), Rate(5e3), TokenBucketCapped(1, 0.5, 4e3))
	}
	rng := rand.New(rand.NewSource(7))
	first := family(rng)
	pristine := family(rand.New(rand.NewSource(7)))
	sp := NewShiftPool(first)
	cur := append([]Curve(nil), first...)
	want := append([]Curve(nil), first...)
	longer := 0
	for step := 0; step < 12; step++ {
		for i, f := range cur {
			d := 1e-12 * (1 + rng.Float64())
			switch step % 4 {
			case 1:
				d = f.LastX() * rng.Float64()
			case 2:
				if n := f.NumPoints(); n > 1 {
					d = f.PointAt(1 + rng.Intn(n-1)).X
				}
			case 3:
				d = rng.Float64() * 3
			}
			if d <= 0 {
				continue
			}
			before := New(f.Points(), f.FinalSlope())
			cur[i] = sp.ShiftLeft(i, f, d)
			if !samePoints(f, before) {
				t.Fatalf("slot %d step %d: the shift wrote through its input", i, step)
			}
			want[i] = ShiftLeft(want[i], d)
			if cur[i].NumPoints() > f.NumPoints() {
				longer++
			}
		}
		for i := range cur {
			if !samePoints(cur[i], want[i]) {
				t.Fatalf("slot %d step %d: pool %v, heap %v", i, step, cur[i], want[i])
			}
		}
	}
	for i := range first {
		if !samePoints(first[i], pristine[i]) {
			t.Fatalf("first curve %d was written through", i)
		}
	}
	if longer == 0 {
		t.Error("no shift lengthened its curve: the spill corner went untested")
	}
}

// samePoints reports whether two curves have the same breakpoints and final
// slope, bit for bit.
func samePoints(a, b Curve) bool {
	if a.NumPoints() != b.NumPoints() || math.Float64bits(a.FinalSlope()) != math.Float64bits(b.FinalSlope()) {
		return false
	}
	for i := 0; i < a.NumPoints(); i++ {
		p, q := a.PointAt(i), b.PointAt(i)
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return false
		}
	}
	return true
}

// TestShiftPoolAllocs: a shift that fits its slot allocates nothing.
func TestShiftPoolAllocs(t *testing.T) {
	f := TokenBucketCapped(2, 0.3, 1)
	sp := NewShiftPool([]Curve{f})
	cur := f
	if allocs := testing.AllocsPerRun(100, func() { cur = sp.ShiftLeft(0, cur, 0.25) }); allocs != 0 {
		t.Errorf("a shift within its slot allocates %.0f times", allocs)
	}
}
