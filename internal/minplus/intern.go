package minplus

import (
	"math"
	"sync"
)

// Curve interning. The analysis layer rebuilds the same handful of
// token-bucket / rate-latency / rate envelopes constantly — once per
// connection per analysis pass — so the common builders memoize their
// results in a bounded table keyed by constructor parameters. Interned
// curves are shared: every operation in this package treats curves as
// immutable (all mutating steps happen on freshly-allocated buffers before
// a curve is returned), so sharing is safe, including across goroutines.

type internKind uint8

const (
	internRate internKind = iota + 1
	internTokenBucket
	internTokenBucketCapped
	internRateLatency
)

// internKey holds a builder's parameters as bits, all of one word size, so
// the table hashes and compares the key as plain memory: a key of float
// fields is hashed field by field, which cost most of a lookup.
type internKey struct {
	kind, a, b, c uint64
}

// keyBits is f as a key word. Zero of either sign is one word, so that keys
// compare as the parameters do under ==.
func keyBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// internMax bounds the builder table. Adversarial workloads (the falsify
// hill-climber mutates sigma/rho continuously) would otherwise grow it
// without bound; on overflow the table is simply dropped and re-warmed.
const internMax = 1 << 14

var (
	internMu  sync.RWMutex
	internTab map[internKey]Curve
)

// internCurve returns the cached curve of the builder kind over the
// parameters p0, p1 and p2, building and caching it on a miss.
func internCurve(kind internKind, p0, p1, p2 float64, build func() Curve) Curve {
	k := internKey{uint64(kind), keyBits(p0), keyBits(p1), keyBits(p2)}
	internMu.RLock()
	c, ok := internTab[k]
	internMu.RUnlock()
	if ok {
		return c
	}
	c = build()
	internMu.Lock()
	if internTab == nil {
		internTab = make(map[internKey]Curve, 256)
	} else if len(internTab) >= internMax {
		clear(internTab)
	}
	internTab[k] = c
	internMu.Unlock()
	return c
}
