package minplus

import "sync"

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
	seg slab[SlopeSeg]
	cur slab[Cursor]
	cv  slab[Curve]
	gc  slab[GatedConvex]
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

// arenaBlock is the minimum slab block length, in elements; gatedBlock
// that of the GatedConvex slab, whose buffers are a handful of 56-byte
// forms (a scan's branch set) where the others hold breakpoint runs.
const (
	arenaBlock = 2048
	gatedBlock = 128
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
	a.seg.reset()
	a.cur.reset()
	a.cv.reset()
	a.gc.reset()
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
	return a.gc.allocBlock(n, gatedBlock)
}

// Floats returns an empty float64 buffer with the given capacity, for
// callers assembling scalar scratch (candidate lists, sample grids)
// without a heap allocation per call. The buffer obeys the arena
// lifetime rules. Note that arena memory is not zeroed.
func (a *Arena) Floats(n int) []float64 { return a.floats(n) }

// Clone copies a curve's breakpoints to the heap, detaching it from any
// arena it was built in. Use it to keep a result past Reset/Release.
func (c Curve) Clone() Curve {
	c.mustValid()
	cp := make([]Point, len(c.pts))
	copy(cp, c.pts)
	return Curve{pts: cp, slope: c.slope}
}
