package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestBesideRunsOnce holds Beside to running f exactly once, before wait
// returns, at one core and at several, however the race between wait and
// the helper goroutine falls.
func TestBesideRunsOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 1000; i++ {
			var runs atomic.Int32
			var wrote int
			wait := Beside(func() {
				wrote = i
				runs.Add(1)
			})
			if i%2 == 0 {
				runtime.Gosched()
			}
			wait()
			if got := runs.Load(); got != 1 || wrote != i {
				t.Fatalf("GOMAXPROCS=%d, round %d: f ran %d times, wrote %d", procs, i, got, wrote)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
