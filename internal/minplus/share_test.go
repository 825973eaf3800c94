package minplus

import (
	"math"
	"math/rand"
	"testing"
)

// Tests of the kernels that recognise one curve by its storage: SumN's
// grouping of repeated operands and Arena.ShiftLeftShared's memo. Both must
// return what the same call over private copies returns, to the bit.

// requireBitEqual fails unless got and want have the same breakpoints and
// final slope, bit for bit.
func requireBitEqual(t *testing.T, label string, got, want Curve) {
	t.Helper()
	same := len(got.pts) == len(want.pts) && math.Float64bits(got.slope) == math.Float64bits(want.slope)
	for i := 0; same && i < len(got.pts); i++ {
		same = math.Float64bits(got.pts[i].X) == math.Float64bits(want.pts[i].X) &&
			math.Float64bits(got.pts[i].Y) == math.Float64bits(want.pts[i].Y)
	}
	if !same {
		t.Fatalf("%s: not bit-identical:\ngot  %v\nwant %v", label, got, want)
	}
}

// clones gives every operand private storage.
func clones(curves []Curve) []Curve {
	out := make([]Curve, len(curves))
	for i, c := range curves {
		out[i] = c.Clone()
	}
	return out
}

// repeatList draws n operands from distinct, every distinct curve at least
// once.
func repeatList(rng *rand.Rand, distinct []Curve, n int) []Curve {
	out := append([]Curve(nil), distinct...)
	for len(out) < n {
		out = append(out, distinct[rng.Intn(len(distinct))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestSumNRepeatedOperandsMatchClones(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type list struct {
		name    string
		curves  []Curve
		grouped bool // the list qualifies for the grouped sweep
	}
	var lists []list
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(sumGroupMax)
		distinct := make([]Curve, k)
		for i := range distinct {
			distinct[i] = genCurve(rng)
		}
		lists = append(lists, list{"random", repeatList(rng, distinct, 2*k+rng.Intn(3*k)), true})
	}
	// Breakpoints within Eps of each other across operands: the union
	// keeps one abscissa of the cluster whichever copies it sees.
	near := []Curve{
		New([]Point{{0, 0}, {1, 1}, {3, 2}}, 0.5),
		New([]Point{{0, 0}, {1 + Eps/4, 0.5}, {1 + Eps/4, 1.5}, {3 - Eps/8, 2}}, 0.25),
		New([]Point{{0, 0.5}, {1 - Eps/4, 0.75}, {2, 3}}, 0),
	}
	lists = append(lists,
		list{"near-eps", repeatList(rng, near, 11), true},
		// Qualifies, but the all-origin fast path comes first.
		list{"all-origin", repeatList(rng, []Curve{TokenBucket(1, 0.25), TokenBucket(2, 0.5), Rate(0.125)}, 9), true},
		list{"single", repeatList(rng, []Curve{genCurve(rng)}, 7), true},
		list{"single-pair", repeatList(rng, []Curve{near[1]}, 2), true},
	)
	past := make([]Curve, sumGroupMax+1)
	for i := range past {
		past[i] = genCurve(rng)
	}
	lists = append(lists, list{"past-bound", repeatList(rng, past, 4*len(past)), false})
	// Fewer than half repeats: one distinct curve too many for grouping.
	few := []Curve{genCurve(rng), genCurve(rng), genCurve(rng)}
	lists = append(lists, list{"few-repeats", []Curve{few[0], few[1], few[2], few[0], few[1]}, false})

	ar := NewArena()
	for i, l := range lists {
		var uniq [sumGroupMax]Curve
		if grouped := distinctByStorage(l.curves, &uniq) > 0; grouped != l.grouped {
			t.Fatalf("%s %d: grouped %v, want %v", l.name, i, grouped, l.grouped)
		}
		private := clones(l.curves)
		if distinctByStorage(private, &uniq) > 0 {
			t.Fatalf("%s %d: cloned operands grouped", l.name, i)
		}
		want := SumN(private...)
		requireBitEqual(t, l.name, SumN(l.curves...), want)
		ar.Reset()
		requireBitEqual(t, l.name+" (arena)", ar.SumNSlice(l.curves), want)
		if !want.Equal(foldSum(private...)) {
			t.Fatalf("%s %d: SumN disagrees with the pairwise fold", l.name, i)
		}
	}
}

func TestShiftLeftSharedMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ar := NewArena()
	f := genCurve(rng)
	for _, d := range []float64{0.5, 1, 2.75, 40} {
		first := ar.ShiftLeftShared(f, d)
		requireBitEqual(t, "shared shift", first, ShiftLeft(f, d))
		if again := ar.ShiftLeftShared(f, d); !again.SameStorage(first) {
			t.Fatalf("d=%g: repeated shift of one curve got new storage", d)
		}
		// Equal by value on other storage is another input.
		private := ar.ShiftLeftShared(f.Clone(), d)
		requireBitEqual(t, "shift of a clone", private, first)
		if private.SameStorage(first) {
			t.Fatalf("d=%g: a clone's shift shares the original's", d)
		}
	}
	if a, b := ar.ShiftLeftShared(f, 1), ar.ShiftLeftShared(f, math.Nextafter(1, 2)); a.SameStorage(b) {
		t.Fatal("shifts by different delays share storage")
	}
	if got := ar.ShiftLeftShared(f, 0); !got.SameStorage(f) {
		t.Fatal("a zero shift is not the input")
	}
	// The ring forgets the oldest of more than shiftMemoLen inputs.
	ar.Reset()
	ins := make([]Curve, shiftMemoLen+1)
	outs := make([]Curve, len(ins))
	for i := range ins {
		ins[i] = genCurve(rng)
		outs[i] = ar.ShiftLeftShared(ins[i], 1)
	}
	if ar.ShiftLeftShared(ins[len(ins)-1], 1); !ar.ShiftLeftShared(ins[len(ins)-1], 1).SameStorage(outs[len(ins)-1]) {
		t.Fatal("the latest shift was forgotten")
	}
	again := ar.ShiftLeftShared(ins[0], 1)
	requireBitEqual(t, "recomputed shift", again, outs[0])
	if again.SameStorage(outs[0]) {
		t.Fatal("the ring kept more than shiftMemoLen shifts")
	}
	// Reset forgets everything and drops the references.
	ar.Reset()
	if ar.nShifts != 0 {
		t.Fatal("Reset left remembered shifts")
	}
	for _, m := range ar.shifts {
		if m.pts != nil || m.out.pts != nil {
			t.Fatal("Reset kept a forgotten shift's curves reachable")
		}
	}
	var nilArena *Arena
	requireBitEqual(t, "nil arena", nilArena.ShiftLeftShared(f, 1), ShiftLeft(f, 1))
	// A remembered shift allocates nothing.
	ar.ShiftLeftShared(f, 3)
	if allocs := testing.AllocsPerRun(10, func() { ar.ShiftLeftShared(f, 3) }); allocs != 0 {
		t.Fatalf("a remembered shift allocates %.0f times", allocs)
	}
}
