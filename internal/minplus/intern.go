package minplus

import "sync"

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

type internKey struct {
	kind    internKind
	a, b, c float64
}

// internMax bounds the builder table. Adversarial workloads (the falsify
// hill-climber mutates sigma/rho continuously) would otherwise grow it
// without bound; on overflow the table is simply dropped and re-warmed.
const internMax = 1 << 14

var (
	internMu  sync.RWMutex
	internTab map[internKey]Curve
)

// internCurve returns the cached curve for key, building and caching it on
// a miss.
func internCurve(k internKey, build func() Curve) Curve {
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
