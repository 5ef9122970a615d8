package scenarios

import (
	"runtime"
	"testing"
)

// TestSweepDeterminism asserts that the goroutine fan-out of the sweep
// runners is invisible in the results: RunFig7 and RunFig14to17 must
// produce byte-identical Format() output whether the sweep points run
// concurrently or one after another (GOMAXPROCS(1) gives the pool a
// single worker), at a fixed (duration, seed). This is the contract
// that lets cmd/litsim numbers be compared across machines with
// different core counts.
func TestSweepDeterminism(t *testing.T) {
	const (
		duration = 2.0
		seed     = 1
	)

	t.Run("fig7", func(t *testing.T) {
		parallel := RunFig7(duration, seed).Format()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker
		serial := RunFig7(duration, seed).Format()
		if parallel != serial {
			t.Fatalf("parallel and serial Fig7 runs differ:\n--- parallel ---\n%s--- serial ---\n%s", parallel, serial)
		}
	})

	t.Run("fig14", func(t *testing.T) {
		parallel := RunFig14to17(duration, seed, 2).Format()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker
		serial := RunFig14to17(duration, seed, 2).Format()
		if parallel != serial {
			t.Fatalf("parallel and serial Fig14-17 runs differ:\n--- parallel ---\n%s--- serial ---\n%s", parallel, serial)
		}
	})
}
