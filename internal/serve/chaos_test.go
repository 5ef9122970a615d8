package serve

import (
	"strconv"
	"testing"
)

// TestChaosBattery runs the full live battery for two seeds (CI runs a
// hundred through litserve -mode chaos). Every probe of every seed must
// pass; a failure reports the probe name and detail.
func TestChaosBattery(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			report, err := RunChaos(seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range report.Probes {
				if !p.OK {
					t.Errorf("probe %s: %s", p.Name, p.Detail)
				}
			}
		})
	}
}

// TestChaosScenarioParses pins the battery's generated scenario to the
// declarative schema so chaos failures are never parse bugs.
func TestChaosScenarioParses(t *testing.T) {
	if _, err := libraryResult(chaosScenario(1, 0.1)); err != nil {
		t.Fatal(err)
	}
}
