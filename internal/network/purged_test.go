// The registration-race regression battery lives in an external test
// package: it drives real disciplines (internal/sched, internal/core)
// through the port machinery, which the in-package tests cannot import
// without a cycle.
package network_test

import (
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/sched"
	"leaveintime/internal/trace"
)

// TestInFlightTeardownNoPanic is the regression test for the
// registration race: a session is torn down at a downstream port while
// one of its packets is still on the wire toward it. Disciplines that
// track registration used to panic inside Enqueue when the straggler
// arrived; the port now refuses the packet up front and traces a
// terminal Drop with cause "purged". Disciplines that keep no
// registration state (no SessionChecker: FCFS, Stop-and-Go) accept and
// deliver the straggler — the port must not impose stricter semantics
// than the discipline has. The cases are every row of sched.Table and
// the class aggregate.
func TestInFlightTeardownNoPanic(t *testing.T) {
	cases := append(sched.Table[:len(sched.Table):len(sched.Table)], sched.Row{Name: "aggregate",
		New: func(capacity, lMax, _ float64) network.Discipline {
			return core.NewAggregate(core.AggConfig{Capacity: capacity, LMax: lMax,
				Classes: 1, ClassOf: func(int) int { return 0 }})
		}})
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			sim := event.New()
			net := network.New(sim, 424)
			rec := &trace.Recorder{}
			net.Tracer = rec
			// 10 ms of wire between the ports: plenty of room to tear
			// the session down mid-flight.
			p1 := net.NewPort("a", 1536e3, 10e-3, c.New(1536e3, 424, 0.01))
			p2 := net.NewPort("b", 1536e3, 0, c.New(1536e3, 424, 0.01))
			// A discipline without SessionChecker tracks no registration,
			// so the straggler completes instead of dropping.
			_, checks := p2.Disc.(network.SessionChecker)
			cfg := network.SessionPort{Rate: 32e3, LocalDelay: 1e-3, XMin: 1e-3, DMax: 1e-3}
			s := net.AddSession(1, 32e3, false, []*network.Port{p1, p2},
				[]network.SessionPort{cfg, cfg}, nil)

			sim.Schedule(0, func() { s.InjectAt(sim.Now(), 424) })
			// The packet leaves port a at ~0.28 ms and reaches port b at
			// ~10.3 ms; at 5 ms the teardown races ahead of it.
			sim.Schedule(5e-3, func() {
				// PurgeSession rather than RemoveSession: every
				// discipline implements it, and the queue is empty (the
				// packet is on the wire), so it is pure deregistration.
				p2.Disc.(network.SessionPurger).PurgeSession(1, func(*packet.Packet) {
					t.Errorf("%s: purge found a queued packet", c.Name)
				})
			})
			sim.RunAll()

			var drops, delivers int
			for _, e := range rec.Events {
				switch e.Kind {
				case trace.Drop:
					drops++
					if e.Cause != "purged" {
						t.Errorf("drop cause %q, want \"purged\"", e.Cause)
					}
					if e.Port != "b" {
						t.Errorf("drop at port %q, want \"b\"", e.Port)
					}
				case trace.Deliver:
					delivers++
				}
			}
			if !checks {
				if delivers != 1 || drops != 0 {
					t.Fatalf("%s: delivered %d dropped %d, want the straggler delivered", c.Name, delivers, drops)
				}
			} else {
				if drops != 1 || delivers != 0 {
					t.Fatalf("%s: delivered %d dropped %d, want one purged drop", c.Name, delivers, drops)
				}
				if s.Delivered != 0 {
					t.Fatalf("%s: session counted %d deliveries", c.Name, s.Delivered)
				}
			}
			// Either way the port is healthy: a fresh registration
			// serves traffic again.
			p2.Disc.AddSession(network.SessionPort{Session: 1, Rate: 32e3,
				LocalDelay: 1e-3, XMin: 1e-3, DMax: 1e-3})
			sim.Schedule(sim.Now()+1e-3, func() { s.InjectAt(sim.Now(), 424) })
			sim.RunAll()
			if s.Delivered == 0 {
				t.Fatalf("%s: no delivery after re-registration", c.Name)
			}
		})
	}
}

// TestStaleHandleIsNoOp: a handle whose session was removed, and whose
// id was then added again, is no longer listed, so RemoveSession and
// DropSession on it leave every port alone. The live session keeps its
// Leave-in-Time state, its place in Sessions() and its packets. It lives
// here, not beside the in-package network tests, because it drives
// core.LiT, which imports network.
func TestStaleHandleIsNoOp(t *testing.T) {
	sim := event.New()
	net := network.New(sim, 424)
	net.SetPoolDebug(true)
	lit := core.New(core.Config{Capacity: 1536e3, LMax: 424})
	port := net.NewPort("a", 1536e3, 1e-3, lit)
	cfg := []network.SessionPort{{Rate: 32e3, LocalDelay: 1e-3, XMin: 1e-3, DMax: 1e-3}}
	add := func() *network.Session { return net.AddSession(3, 32e3, false, []*network.Port{port}, cfg, nil) }
	stale := add()
	net.RemoveSession(stale)
	live := add()
	net.RemoveSession(stale)
	net.DropSession(stale)
	if !lit.HasSession(3) {
		t.Fatal("the stale handle's removal took session 3's state out of the LiT port")
	}
	if got := net.Sessions(); len(got) != 1 || got[0] != live {
		t.Fatalf("Sessions() = %v, want only the live session %p", got, live)
	}
	sim.Schedule(0, func() { live.InjectAt(sim.Now(), 424) })
	sim.RunAll()
	if live.Delivered != 1 {
		t.Fatalf("live session delivered %d of 1 packet", live.Delivered)
	}
	if st := net.PoolStats(); st.Live != 0 || st.Taken != 1 {
		t.Fatalf("pool after the run: %+v, want one packet taken and released", st)
	}
	// Another network's handle is left alone too.
	other := network.New(event.New(), 424)
	other.RemoveSession(live)
	other.DropSession(live)
	if !lit.HasSession(3) || len(net.Sessions()) != 1 {
		t.Fatal("another network's RemoveSession or DropSession reached the live session")
	}
}
