// Package par runs a piece of set-up work beside the caller's own.
package par

import (
	"runtime"
	"sync/atomic"
)

// Beside starts f on another goroutine and returns wait, which returns once
// f has run. Whoever comes first runs f: when wait finds that no goroutine
// has picked f up yet, it runs f itself, so the caller never waits for a
// goroutine to be scheduled, and a caller with one core runs f inline with
// no goroutine at all. A helper that finds f taken returns at once, so
// nothing waits for it. f must not panic, and the caller must not read what
// f writes before wait returns.
func Beside(f func()) (wait func()) {
	if runtime.GOMAXPROCS(0) < 2 {
		return f
	}
	var claimed atomic.Bool
	done := make(chan struct{})
	go func() {
		if claimed.CompareAndSwap(false, true) {
			f()
			close(done)
		}
	}()
	return func() {
		if claimed.CompareAndSwap(false, true) {
			f()
			return
		}
		<-done
	}
}
