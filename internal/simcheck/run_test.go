package simcheck

import (
	"math"
	"slices"
	"testing"

	"leaveintime/internal/admission"
	"leaveintime/internal/config"
	"leaveintime/internal/faults"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
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
		if rep.Churn || len(rep.Disciplines) != len(sched.Table)+1 { // every row and the class aggregate
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

// TestResetupLeavesOnePort: a session removed or purged at a port and
// set up there again sits at it once, with its second grant, so a row's
// promise reads each session once; ports taken before the removal keep
// what they held.
func TestResetupLeavesOnePort(t *testing.T) {
	sc := Generate(1)
	rate := sc.Sessions[0].Rate
	for _, purge := range []bool{false, true} {
		var out []Violation
		c := checkedRow(&sc, sched.Lookup("lit"), &out, false).New(1e9, sc.LMax, 0).(*checkedDisc)
		c.AddSession(network.SessionPort{Session: 1, Rate: rate, DMax: 1})
		before := c.ports
		if purge {
			c.PurgeSession(1, func(*packet.Packet) {})
		} else {
			c.RemoveSession(1)
		}
		c.AddSession(network.SessionPort{Session: 1, Rate: rate, DMax: 2})
		if len(c.ports) != 1 || c.ports[0].DMax != 2 {
			t.Errorf("purge %v: ports %+v, want the second grant alone", purge, c.ports)
		}
		if len(before) != 1 || before[0].DMax != 1 {
			t.Errorf("purge %v: ports taken before the removal now read %+v", purge, before)
		}
	}
}

// TestLiTPromiseIsConnBounds: the lit row's promise, read from the ports
// the battery's LiT run was given, is what Connect returned with the
// grants, bit for bit, on clean seeds 1-20. In the exactness corner the
// ports run d = L/r (a nil D), and the promise is eq. 12 on that route.
func TestLiTPromiseIsConnBounds(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var checked, corner int
	for seed := uint64(1); seed <= 20; seed++ {
		sc := Generate(seed)
		res, err := runScenario(&sc, sched.Lookup("lit"), runOpts{wd: Options{}.watchdog(&sc)})
		if err != nil {
			t.Fatal(err)
		}
		run, err := build(&sc, sc.Sessions)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range run.Conns() {
			p, b, req := res.Sessions[i].Promise, c.Bounds, c.Def.Request()
			if req.B0 == 0 {
				if p.Bound != 0 || p.Origin != "no token bucket" {
					t.Errorf("seed %d s%d: %+v without a bucket", seed, c.Def.ID, p)
				}
				continue
			}
			delay, jitter, buffer := b.DelayBound, b.JitterBound, b.BufferBoundBits
			if sc.Check.Special {
				hops := make([]admission.Hop, len(b.Route.Hops))
				for n, h := range b.Route.Hops {
					hops[n] = admission.Hop{C: h.C, Gamma: h.Gamma, DMax: req.LMax / req.Rate}
				}
				r := admission.Route{Hops: hops, LMax: b.Route.LMax}
				delay, jitter, buffer = r.Commitments(req.Rate, req.B0, req.LMin, req.JitterControl)
				corner++
			}
			if !same(p.Bound, delay) || !same(p.Jitter, jitter) || !slices.EqualFunc(p.Buffer, buffer, same) {
				t.Errorf("seed %d s%d (corner %v): promise %+v, want %v %v %v",
					seed, c.Def.ID, sc.Check.Special, p, delay, jitter, buffer)
			}
			checked++
		}
	}
	if checked == 0 || corner == 0 || corner == checked {
		t.Fatalf("checked %d sessions, %d in the exactness corner", checked, corner)
	}
}

// TestCongestionPoints pins what a recording counts as a congestion
// point, on a hand-built two-port tandem where a packet takes 1 ms on
// either link and a source first emits one interval after the start.
// s1's first packet (3.5 ms) finds the first port idle and waits
// nowhere. s2's (4 ms) waits behind it there until 4.5 ms, reaches the
// second port at 5.5 ms while s3's second packet (5 ms) is on that
// link, and waits again.
func TestCongestionPoints(t *testing.T) {
	const c, l = 1e6, 1000.0
	sc := Case{Scenario: &config.Scenario{
		Seed: 1, LMax: l, Duration: 0.006, Proc: 1,
		Servers: []config.Server{{Name: "p1", Capacity: c}, {Name: "p2", Capacity: c}},
		Classes: []config.Class{{RFrac: 1, Sigma: 1}},
	}}
	for i, s := range []struct {
		route    []string
		interval float64
	}{{[]string{"p1"}, 3.5e-3}, {[]string{"p1", "p2"}, 4e-3}, {[]string{"p2"}, 2.5e-3}} {
		sc.Sessions = append(sc.Sessions, config.Session{ID: i + 1, Route: s.route, Rate: l / s.interval, Class: 1,
			LMin: l, LMax: l, B0: l, Source: config.Source{Kind: "deterministic", Interval: s.interval, Length: l}})
	}
	res, err := runScenario(&sc, sched.Lookup("lit"), runOpts{collectDelays: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		session int
		seq     int64
		points  int
	}{{1, 1, 0}, {2, 1, 2}} {
		if got := res.Counts.waits[want.session-1][want.seq-1].points; got != want.points {
			t.Errorf("s%d seq %d waited at %d ports, want %d", want.session, want.seq, got, want.points)
		}
	}
	if got := res.Counts.mostWaits; got != 2 {
		t.Errorf("most congestion points %d, want 2", got)
	}
}
