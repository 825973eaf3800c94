package minplus

// ShiftPool recycles breakpoint storage for repeated ShiftLefts whose
// results must persist until the same slot's next shift — the propagation
// state of an analysis, where each connection's envelope is shifted once
// per traversed subnetwork and only the latest result (plus, transiently,
// its immediate predecessor) is live. Each slot owns two fixed-capacity
// buffers carved from one backing slab and alternates between them: a
// shift writes into the buffer not backing its input, so the input — which
// may alias the slot's other buffer or be a shared interned curve — is
// never clobbered. A shift that outgrows the slot's buffer spills that
// result to the heap: the buffers are handed out full-sliced, so the append
// that overflows one reallocates instead of running into a neighbouring
// slot.
//
// Distinct slots may be used concurrently (they write disjoint slab
// ranges); a single slot must not.
type ShiftPool struct {
	slab []Point
	// Slot i owns slab[off[i]:off[i+1]], its two buffers the two halves.
	off []int
}

// NewShiftPool sizes a pool of one slot per curve of first, the curve that
// slot's shifts start from: each buffer holds as many points as the curve
// (see ShiftLeft), and all slots are carved from one slab.
func NewShiftPool(first []Curve) *ShiftPool {
	off := make([]int, len(first)+1)
	for i, f := range first {
		off[i+1] = off[i] + 2*len(f.pts)
	}
	return &ShiftPool{slab: make([]Point, off[len(first)]), off: off}
}

// sameBase reports whether two slices share a backing array, by first
// element identity. Safe on zero-length slices with spare capacity.
func sameBase(a, b []Point) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// ShiftLeft is ShiftLeft(f, d) with the result stored in slot's spare
// buffer. The returned curve is valid until the slot's next-next shift
// (double buffering keeps the immediately preceding result intact).
//
// A shift by d > 0 writes the value at d, the right limit there when it
// differs, and f's breakpoints past d — never f's first, at 0. The two
// values differ only where f has a breakpoint at d (within tolerance),
// which is then not past d either, so unless that breakpoint is f's first
// — d within tolerance of 0 — the result has at most len(f) points: shifts
// do not lengthen a curve, and a slot sized to its first curve spills only
// in that corner.
func (sp *ShiftPool) ShiftLeft(slot int, f Curve, d float64) Curve {
	f.mustValid()
	if d < 0 {
		panic("minplus: ShiftLeft by negative amount")
	}
	if d == 0 {
		return f
	}
	lo, hi := sp.off[slot], sp.off[slot+1]
	mid := (lo + hi) / 2
	dst := sp.slab[lo:lo:mid]
	if sameBase(dst, f.pts) {
		dst = sp.slab[mid:mid:hi]
	}
	return shiftLeftInto(dst, f, d)
}
