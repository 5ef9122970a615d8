package simcheck

import (
	"math"
	"testing"

	"leaveintime/internal/config"
	"leaveintime/internal/faults"
	"leaveintime/internal/sched"
)

// TestCleanRunReturnsCapacity: a run on a clean network ends with its
// reservations released too — every controller is back to exactly zero
// reserved rate and the pool holds every packet again.
func TestCleanRunReturnsCapacity(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		sc := Generate(seed)
		for _, name := range []string{"lit", "lit-approx", "virtualclock", "stopandgo", "rcsp"} {
			res, err := runScenario(&sc, sched.Lookup(name), runOpts{wd: Options{}.watchdog(&sc)})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 || res.Tripped != "" {
				t.Fatalf("seed %d %s: %v (tripped %q)", seed, name, res.Violations, res.Tripped)
			}
			for _, srv := range res.Servers {
				if rate := srv.Admission().TotalRate(); rate != 0 {
					t.Errorf("seed %d %s: %g bits/s still reserved at %s", seed, name, rate, srv.Port.Name)
				}
			}
			if res.Pool.Live != 0 || res.Pool.Taken == 0 {
				t.Errorf("seed %d %s: pool %+v after drain", seed, name, res.Pool)
			}
		}
	}
}

// TestCleanRunIsAFaultlessChurnRun: a document without a fault plan and
// the same document with a plan that schedules nothing are one case —
// the same report, and the same per-session counts and worst delay to
// the bit.
func TestCleanRunIsAFaultlessChurnRun(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		bare := Generate(seed)
		planned := bare.edited(func(doc *config.Scenario) { doc.Faults = &faults.Plan{} })
		if a, b := CheckScenario(bare, Options{}).Format(), CheckScenario(planned, Options{}).Format(); a != b {
			t.Fatalf("seed %d: reports differ:\n--- no plan ---\n%s--- empty plan ---\n%s", seed, a, b)
		}
		for _, name := range []string{"lit", "lit-approx", "hrr"} {
			opts := runOpts{wd: Options{}.watchdog(&bare)}
			a, err := runScenario(&bare, sched.Lookup(name), opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runScenario(&planned, sched.Lookup(name), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Sessions) != len(b.Sessions) || len(a.Sessions) == 0 {
				t.Fatalf("seed %d %s: %d sessions against %d", seed, name, len(a.Sessions), len(b.Sessions))
			}
			for i, x := range a.Sessions {
				y := b.Sessions[i]
				if x.Emitted != y.Emitted || x.Delivered != y.Delivered ||
					math.Float64bits(x.MaxDelay) != math.Float64bits(y.MaxDelay) {
					t.Errorf("seed %d %s session %d: emitted %d/%d delivered %d/%d max delay %v/%v",
						seed, name, x.Def.ID, x.Emitted, y.Emitted, x.Delivered, y.Delivered, x.MaxDelay, y.MaxDelay)
				}
			}
		}
	}
}

// TestCleanLivelockTripsWatchdog: the watchdog bounds a clean run as it
// bounds a faulted one. Under a budget no run can finish in, every run
// of the battery — the class-aggregated and the calculus battery's FCFS
// run included (seed 3 has both) — reports one watchdog violation and
// nothing that reads a drained network is checked.
func TestCleanLivelockTripsWatchdog(t *testing.T) {
	for _, seed := range []uint64{1, 3} {
		rep := CheckScenario(Generate(seed), Options{MaxEvents: 200})
		if rep.Churn || len(rep.Disciplines) < 15 {
			t.Fatalf("not the clean battery:\n%s", rep.Format())
		}
		for _, v := range rep.Violations {
			if v.Check != "watchdog" {
				t.Errorf("a run cut short was checked as if drained: %+v", v)
			}
		}
		if len(rep.Violations) != len(rep.Disciplines) {
			t.Errorf("%d watchdog violations over %d runs:\n%s", len(rep.Violations), len(rep.Disciplines), rep.Format())
		}
	}
}
