package minplus

// ShiftPool recycles breakpoint storage for repeated ShiftLefts whose
// results must persist until the same slot's next shift — the propagation
// state of an analysis, where each connection's envelope is shifted once
// per traversed subnetwork and only the latest result (plus, transiently,
// its immediate predecessor) is live. Each slot owns two fixed-capacity
// buffers carved from one backing slab and alternates between them: a
// shift writes into the buffer not backing its input, so the input — which
// may alias the slot's other buffer or be a shared interned curve — is
// never clobbered. A shift that outgrows the slot's capacity spills that
// result to the heap; the slot buffers are full-sliced, so an overflow can
// never run into a neighbouring slot.
//
// Distinct slots may be used concurrently (they write disjoint slab
// ranges); a single slot must not.
type ShiftPool struct {
	a, b [][]Point
}

// NewShiftPool sizes a pool of len(hints) slots, hints[i] being slot i's
// per-buffer point capacity, with all slots carved from one slab.
func NewShiftPool(hints []int) *ShiftPool {
	total := 0
	for _, h := range hints {
		total += h
	}
	slab := make([]Point, 2*total)
	sp := &ShiftPool{a: make([][]Point, len(hints)), b: make([][]Point, len(hints))}
	off := 0
	for i, h := range hints {
		sp.a[i] = slab[off : off : off+h]
		off += h
		sp.b[i] = slab[off : off : off+h]
		off += h
	}
	return sp
}

// sameBase reports whether two slices share a backing array, by first
// element identity. Safe on zero-length slices with spare capacity.
func sameBase(a, b []Point) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// ShiftLeft is ShiftLeft(f, d) with the result stored in slot's spare
// buffer. The returned curve is valid until the slot's next-next shift
// (double buffering keeps the immediately preceding result intact).
func (sp *ShiftPool) ShiftLeft(slot int, f Curve, d float64) Curve {
	f.mustValid()
	if d < 0 {
		panic("minplus: ShiftLeft by negative amount")
	}
	if d == 0 {
		return f
	}
	dst := sp.a[slot]
	if sameBase(dst, f.pts) {
		dst = sp.b[slot]
	}
	if cap(dst) < len(f.pts)+2 {
		dst = make([]Point, 0, len(f.pts)+2)
	}
	return shiftLeftInto(dst, f, d)
}
