package scenarios

import (
	"testing"
	"testing/quick"

	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// TestChurnPreservesBounds: while short-lived sessions come and go
// (established, drained, torn down), a long-lived tagged session keeps
// its delay bound. Teardown must free state without disturbing
// survivors.
func TestChurnPreservesBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		sim := event.New()
		net := network.New(sim, CellBits)
		port := net.NewPort("X", T1Rate, PropDelay,
			core.New(core.Config{Capacity: T1Rate, LMax: CellBits}))
		ac, err := admission.NewProcedure1(T1Rate, []admission.Class{{R: T1Rate, Sigma: 1}})
		if err != nil {
			return false
		}

		// The survivor.
		taggedSpec := admission.SessionSpec{ID: 1, Rate: VoiceRate, LMax: CellBits, LMin: CellBits}
		a, err := ac.Admit(taggedSpec, 1, admission.Options{PerPacket: true})
		if err != nil {
			return false
		}
		tagged := net.AddSession(1, VoiceRate, false, []*network.Port{port},
			[]network.SessionPort{{D: a.D, DMax: a.DMax}},
			&traffic.Deterministic{Interval: DetInterval, Length: CellBits})
		tagged.Start(0, 30)

		route := admission.Route{
			Hops: []admission.Hop{{C: T1Rate, Gamma: PropDelay, DMax: CellBits / VoiceRate}},
			LMax: CellBits,
		}
		bound := route.DelayBound(CellBits / VoiceRate)

		// Churning short-lived sessions.
		nextID := 1
		var spawn func()
		spawn = func() {
			now := sim.Now()
			if now >= 25 {
				return
			}
			sim.Schedule(now+r.Exp(0.2), spawn)
			nextID++
			id := nextID
			rate := (T1Rate - VoiceRate) * (0.1 + 0.3*r.Float64())
			spec := admission.SessionSpec{ID: id, Rate: rate, LMax: CellBits, LMin: CellBits}
			aa, err := ac.Admit(spec, 1, admission.Options{PerPacket: true})
			if err != nil {
				return // blocked; fine
			}
			s := net.AddSession(id, rate, r.Float64() < 0.3, []*network.Port{port},
				[]network.SessionPort{{D: aa.D, DMax: aa.DMax}},
				&traffic.Poisson{Mean: CellBits / rate / 0.9, Length: CellBits, Rng: r.Split()})
			end := now + 0.5 + r.Exp(1)
			s.Start(now, end)
			sim.Schedule(end+1, func() {
				ac.Remove(id)
				net.RemoveSession(s)
			})
		}
		sim.Schedule(0.01, spawn)
		sim.RunAll()

		if tagged.Delivered == 0 {
			return false
		}
		if tagged.Delays.Max() >= bound {
			t.Logf("seed %d: tagged delay %v >= bound %v", seed, tagged.Delays.Max(), bound)
			return false
		}
		// At the end only the tagged session remains registered.
		if n := len(net.Sessions()); n != 1 {
			t.Logf("seed %d: %d sessions left registered", seed, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestRemoveSessionDropsLivePackets: a packet arriving for a session
// the port no longer knows is refused at the port — a traced terminal
// Drop with cause "purged" — rather than reaching the discipline and
// panicking on the freed state (the registration race of a teardown
// with packets still in flight; see TestInFlightTeardownNoPanic in
// internal/network for the full discipline battery).
func TestRemoveSessionDropsLivePackets(t *testing.T) {
	sim := event.New()
	net := network.New(sim, CellBits)
	rec := &trace.Recorder{}
	net.Tracer = rec
	disc := core.New(core.Config{Capacity: T1Rate, LMax: CellBits})
	port := net.NewPort("X", T1Rate, PropDelay, disc)
	s := net.AddSession(1, VoiceRate, false, []*network.Port{port},
		make([]network.SessionPort, 1), nil)
	// Remove while idle is fine.
	net.RemoveSession(s)
	// A packet its source emits after the removal is dropped at the port.
	s2 := net.AddSession(2, VoiceRate, false, []*network.Port{port},
		make([]network.SessionPort, 1), &traffic.Trace{Gaps: []float64{1e-3}, Lengths: []float64{CellBits}})
	s2.Start(0, 1)
	net.RemoveSession(s2)
	sim.RunAll()
	var drops int
	for _, e := range rec.Events {
		if e.Kind == trace.Drop {
			drops++
			if e.Cause != "purged" {
				t.Errorf("drop cause %q, want \"purged\"", e.Cause)
			}
		}
	}
	if drops != 1 || s2.Delivered != 0 {
		t.Errorf("drops %d delivered %d, want the packet refused at the port", drops, s2.Delivered)
	}
}
