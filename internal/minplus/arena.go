package minplus

import (
	"math"
	"sync"
)

// Arena is a bump allocator for the transient buffers behind curve
// operations: breakpoint slices, abscissa unions, convex segments, sweep
// cursors and envelope branch lists. Operations invoked through an Arena
// (a.SumN, a.Convolve, a.ConvolveGated, ...) carve their result and
// scratch storage out of slabs owned by the arena instead of the heap, so
// a steady-state analysis loop that calls Reset between iterations
// allocates nothing once the slabs have grown to the high-water mark.
//
// Lifetime rules:
//
//   - Curves returned by arena methods alias arena memory and are valid
//     only until the next Reset or Release. Copy them (Clone) before
//     storing them anywhere that outlives the arena scope.
//   - An Arena is NOT safe for concurrent use. Parallel workers must each
//     obtain their own arena (GetArena) and Release it when done.
//   - A nil *Arena is valid everywhere and falls back to heap allocation,
//     so code can be written once against the arena API.
//
// The zero value is ready to use.
type Arena struct {
	pt  slab[Point]
	f64 slab[float64]
	fls slab[[]float64]
	seg slab[SlopeSeg]
	cur slab[Cursor]
	cv  slab[Curve]
	gc  slab[GatedConvex]
	u8  slab[uint8]
	// shifts remembers the latest ShiftLeftShared results since the last
	// Reset, a ring written at nShifts % len(shifts).
	shifts  [shiftMemoLen]shiftMemo
	nShifts int
}

// shiftMemoLen is how many ShiftLeftShared results an arena remembers. Its
// callers shift the members of one class or run by one delay, one after
// the other, and equal envelopes there are a few distinct curves repeated,
// so a short ring catches the repeats and bounds a miss's scan.
const shiftMemoLen = 8

// shiftMemo is one remembered shift: the input's storage, length and final
// slope (bits), which identify the input curve (Curve.SameStorage), the
// exact delay, and the shifted curve, in the arena.
type shiftMemo struct {
	pts   *Point
	n     int
	slope uint64
	d     float64
	out   Curve
}

// slab is a grow-only block list handing out exact-capacity sub-slices.
// Full three-index slicing caps every buffer at its requested capacity, so
// an append past the hint spills to the heap instead of clobbering a
// neighbouring allocation.
type slab[T any] struct {
	blocks [][]T
	bi     int // current block
	off    int // used prefix of blocks[bi]
}

// arenaBlock is the minimum slab block length, in elements; smallBlock
// that of the GatedConvex and slice-list slabs, whose buffers are a
// handful of large elements (a scan's branch set of 56-byte forms, a
// search's candidate lists) where the others hold breakpoint runs.
const (
	arenaBlock = 2048
	smallBlock = 128
)

func (s *slab[T]) alloc(n int) []T { return s.allocBlock(n, arenaBlock) }

// allocBlock is alloc with the minimum length of a new block given: for
// element types that are large and drawn a few at a time.
func (s *slab[T]) allocBlock(n, block int) []T {
	if n < 0 {
		panic("minplus: negative arena allocation")
	}
	for s.bi < len(s.blocks) {
		b := s.blocks[s.bi]
		if len(b)-s.off >= n {
			out := b[s.off : s.off : s.off+n]
			s.off += n
			return out
		}
		s.bi++
		s.off = 0
	}
	size := block
	if n > size {
		size = n
	}
	b := make([]T, size)
	s.blocks = append(s.blocks, b)
	s.bi = len(s.blocks) - 1
	s.off = n
	return b[0:0:n]
}

func (s *slab[T]) reset() { s.bi, s.off = 0, 0 }

// Reset rewinds the arena: every buffer previously handed out is invalid
// and the slabs are reused by subsequent allocations. Memory is retained
// at the high-water mark.
func (a *Arena) Reset() {
	a.pt.reset()
	a.f64.reset()
	a.fls.reset()
	a.seg.reset()
	a.cur.reset()
	a.cv.reset()
	a.gc.reset()
	a.u8.reset()
	clear(a.shifts[:min(a.nShifts, shiftMemoLen)])
	a.nShifts = 0
}

// ShiftLeftShared is ShiftLeft that hands out one curve for a repeated input
// and delay: the arena remembers its latest shiftMemoLen results since the
// last Reset, keyed by the input's storage (see Curve.SameStorage) and the
// exact delay. A shift is a pure function of the two, so the result is the
// one ShiftLeft would build, to the bit, and the callers that shift many
// equal envelopes by one delay keep them on one storage, which SumN and
// copies downstream recognise. It is meant for the propagation's shifts of
// many connections, not for a search that shifts one curve by many delays,
// whose lookups would only miss. A nil arena shifts without remembering.
func (a *Arena) ShiftLeftShared(f Curve, d float64) Curve {
	if a == nil || d == 0 {
		return shiftLeft(a, f, d)
	}
	f.mustValid()
	pts, n, slope := &f.pts[0], len(f.pts), math.Float64bits(f.slope)
	for i := range a.shifts[:min(a.nShifts, shiftMemoLen)] {
		if m := &a.shifts[i]; m.pts == pts && m.n == n && m.slope == slope && m.d == d {
			return m.out
		}
	}
	out := shiftLeft(a, f, d)
	a.shifts[a.nShifts%shiftMemoLen] = shiftMemo{pts: pts, n: n, slope: slope, d: d, out: out}
	a.nShifts++
	return out
}

var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// GetArena takes a reset arena from the package pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// Release resets the arena and returns it to the package pool. The caller
// must not use the arena, or any curve built in it, afterwards. Release on
// a nil arena is a no-op.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// points returns an empty Point buffer with the given capacity, from the
// arena when non-nil and the heap otherwise.
func (a *Arena) points(n int) []Point {
	if a == nil {
		return make([]Point, 0, n)
	}
	return a.pt.alloc(n)
}

// floats returns an empty float64 buffer with the given capacity.
func (a *Arena) floats(n int) []float64 {
	if a == nil {
		return make([]float64, 0, n)
	}
	return a.f64.alloc(n)
}

// uint8s returns an empty uint8 buffer with the given capacity.
func (a *Arena) uint8s(n int) []uint8 {
	if a == nil {
		return make([]uint8, 0, n)
	}
	return a.u8.alloc(n)
}

// segs returns an empty SlopeSeg buffer with the given capacity.
func (a *Arena) segs(n int) []SlopeSeg {
	if a == nil {
		return make([]SlopeSeg, 0, n)
	}
	return a.seg.alloc(n)
}

// cursors returns a zeroed Cursor slice of length n.
func (a *Arena) cursors(n int) []Cursor {
	if a == nil {
		return make([]Cursor, n)
	}
	out := a.cur.alloc(n)[:n]
	for i := range out {
		out[i] = Cursor{}
	}
	return out
}

// curves returns an empty Curve buffer with the given capacity.
func (a *Arena) curves(n int) []Curve {
	if a == nil {
		return make([]Curve, 0, n)
	}
	return a.cv.alloc(n)[:0]
}

// Curves returns an empty Curve buffer with the given capacity, for
// callers assembling operand lists (e.g. for SumNSlice) without a heap
// allocation per call. The buffer obeys the arena lifetime rules.
func (a *Arena) Curves(n int) []Curve { return a.curves(n) }

// Gated returns an empty GatedConvex buffer with the given capacity, for
// callers assembling the branch set of a closed-form convolution. The
// buffer obeys the arena lifetime rules.
func (a *Arena) Gated(n int) []GatedConvex {
	if a == nil {
		return make([]GatedConvex, 0, n)
	}
	return a.gc.allocBlock(n, smallBlock)
}

// Floats returns an empty float64 buffer with the given capacity, for
// callers assembling scalar scratch (candidate lists, sample grids)
// without a heap allocation per call. The buffer obeys the arena
// lifetime rules. Note that arena memory is not zeroed.
func (a *Arena) Floats(n int) []float64 { return a.floats(n) }

// FloatSlices returns an empty []float64 buffer with the given capacity,
// for callers assembling lists of scalar lists (a search's per-position
// candidates) without a heap allocation per call. The buffer obeys the
// arena lifetime rules.
func (a *Arena) FloatSlices(n int) [][]float64 {
	if a == nil {
		return make([][]float64, 0, n)
	}
	return a.fls.allocBlock(n, smallBlock)
}

// Clone copies a curve's breakpoints to the heap, detaching it from any
// arena it was built in. Use it to keep a result past Reset/Release.
func (c Curve) Clone() Curve {
	c.mustValid()
	cp := make([]Point, len(c.pts))
	copy(cp, c.pts)
	return Curve{pts: cp, slope: c.slope}
}

// AppendTo is Clone into a caller's buffer: it appends the curve's
// breakpoints to buf and returns the grown buffer with a copy of the curve
// backed by the appended points. The copy's breakpoints are
// capacity-clipped, so later appends to buf never write through it: one
// exact-size buffer can hold the detached copies of many curves.
func (c Curve) AppendTo(buf []Point) ([]Point, Curve) {
	c.mustValid()
	n := len(buf)
	buf = append(buf, c.pts...)
	return buf, Curve{pts: buf[n:len(buf):len(buf)], slope: c.slope}
}
