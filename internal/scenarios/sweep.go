package scenarios

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachPoint runs f(i) for i in [0, n) on a worker pool of at most
// GOMAXPROCS goroutines. Sweep points are CPU-bound simulations, so
// spawning one goroutine per point — as a naive fan-out would —
// oversubscribes the scheduler on large sweeps without finishing any
// sooner; the pool bounds peak memory (each point owns a simulator, a
// packet pool and its result buffers) while keeping every core busy.
// Workers pull indices from a shared atomic counter, so point i always
// writes slot i and results are independent of which worker ran it
// (every point owns its simulator and random streams; see
// TestSweepDeterminism).
func forEachPoint(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
