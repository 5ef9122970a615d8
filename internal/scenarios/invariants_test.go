package scenarios

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/traffic"
)

// TestDelayBoundInvariant is the paper's central claim as a property
// test: for ANY admissible set of token-bucket-shaped sessions on a
// tandem of Leave-in-Time servers, every session's end-to-end delay
// stays below eq. (12)'s bound, its jitter below eq. (17)'s, and its
// buffer use below the buffer bound.
func TestDelayBoundInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		sim := event.New()
		lMax := 1000.0
		net := network.New(sim, lMax)
		nHops := 1 + r.Intn(4)
		// Heterogeneous link speeds: each hop between 1x and 3x the
		// base; admission is limited by the slowest hop.
		var ports []*network.Port
		caps := make([]float64, nHops)
		capacity := math.Inf(1)
		for i := 0; i < nHops; i++ {
			caps[i] = 1e6 * (1 + 2*r.Float64())
			if caps[i] < capacity {
				capacity = caps[i]
			}
			ports = append(ports, net.NewPort(fmt.Sprintf("n%d", i),
				caps[i], 1e-4, core.New(core.Config{Capacity: caps[i], LMax: lMax})))
		}

		type sess struct {
			s      *network.Session
			bound  float64
			jBound float64
			probe  *network.BufferProbe
			qBound float64
		}
		var sessions []sess
		remaining := capacity
		nSess := 1 + r.Intn(5)
		for i := 0; i < nSess && remaining > capacity*0.05; i++ {
			rate := (0.05 + 0.25*r.Float64()) * capacity
			if rate > remaining {
				rate = remaining
			}
			remaining -= rate
			b0 := lMax * float64(1+r.Intn(4))
			jitterCtrl := r.Float64() < 0.5
			// Source: bursty Poisson shaped to (rate, b0).
			src := traffic.NewShaped(
				&traffic.Poisson{Mean: lMax / rate * 0.7, Length: lMax, Rng: r.Split()},
				rate, b0)
			cfgs := make([]network.SessionPort, nHops)
			hops := make([]admission.Hop, nHops)
			for h := 0; h < nHops; h++ {
				cfgs[h] = network.SessionPort{DMax: lMax / rate}
				hops[h] = admission.Hop{C: caps[h], Gamma: 1e-4, DMax: lMax / rate}
			}
			s := net.AddSession(i+1, rate, jitterCtrl, ports, cfgs, src)
			route := admission.Route{Hops: hops, LMax: lMax}
			dRef := b0 / rate
			var jb float64
			if jitterCtrl {
				jb = route.JitterBoundControl(dRef, lMax)
			} else {
				jb = route.JitterBoundNoControl(dRef, lMax)
			}
			probe := ports[nHops-1].TrackBuffer(i + 1)
			var qb float64
			if jitterCtrl {
				qb = route.BufferBoundControl(rate, dRef, lMax, nHops)
			} else {
				qb = route.BufferBoundNoControl(rate, dRef, lMax, nHops)
			}
			sessions = append(sessions, sess{
				s:      s,
				bound:  route.DelayBound(dRef),
				jBound: jb,
				probe:  probe,
				qBound: qb,
			})
		}
		for _, ss := range sessions {
			ss.s.Start(0, 20)
		}
		sim.Run(25)

		for _, ss := range sessions {
			if ss.s.Delivered == 0 {
				return false
			}
			if ss.s.Delays.Max() >= ss.bound {
				t.Logf("seed %d: delay %v >= bound %v", seed, ss.s.Delays.Max(), ss.bound)
				return false
			}
			if ss.s.Delays.Jitter() >= ss.jBound {
				t.Logf("seed %d: jitter %v >= bound %v", seed, ss.s.Delays.Jitter(), ss.jBound)
				return false
			}
			if ss.probe.MaxBits >= ss.qBound {
				t.Logf("seed %d: buffer %v >= bound %v", seed, ss.probe.MaxBits, ss.qBound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFirewallProperty: a conforming session keeps its delay bound even
// when every other session floods at twice its reservation. This is
// the isolation the paper demonstrates with Poisson sessions.
func TestFirewallProperty(t *testing.T) {
	sim := event.New()
	net := network.New(sim, CellBits)
	var ports []*network.Port
	for i := 0; i < 3; i++ {
		ports = append(ports, net.NewPort(fmt.Sprintf("n%d", i),
			T1Rate, PropDelay, core.New(core.Config{Capacity: T1Rate, LMax: CellBits})))
	}
	r := rng.New(99)

	// The tagged conforming session: deterministic at its reserved
	// rate.
	cfgs := make([]network.SessionPort, 3)
	for i := range cfgs {
		cfgs[i] = network.SessionPort{DMax: CellBits / VoiceRate}
	}
	tagged := net.AddSession(1, VoiceRate, false, ports, cfgs,
		&traffic.Deterministic{Interval: DetInterval, Length: CellBits})

	// Misbehaving cross sessions: reserved for the residual capacity
	// but sending at DOUBLE their reservation.
	crossRate := T1Rate - VoiceRate
	for i := range ports {
		cfg := []network.SessionPort{{DMax: CellBits / crossRate}}
		net.AddSession(2+i, crossRate, false, ports[i:i+1], cfg,
			&traffic.Poisson{Mean: CellBits / crossRate / 2, Length: CellBits, Rng: r.Split()})
	}

	for _, s := range net.Sessions() {
		s.Start(0, 30)
	}
	sim.Run(35)

	hops := make([]admission.Hop, 3)
	for i := range hops {
		hops[i] = admission.Hop{C: T1Rate, Gamma: PropDelay, DMax: CellBits / VoiceRate}
	}
	route := admission.Route{Hops: hops, LMax: CellBits}
	bound := route.DelayBound(CellBits / VoiceRate)
	if tagged.Delivered == 0 {
		t.Fatal("tagged session starved")
	}
	if tagged.Delays.Max() >= bound {
		t.Errorf("firewall broken: delay %v >= bound %v under flooding cross traffic",
			tagged.Delays.Max(), bound)
	}
}

// TestLiTEqualsVirtualClock: under admission control procedure 1 with
// one class and no jitter control, the Leave-in-Time network and a
// VirtualClock network must produce bit-identical per-packet delays.
func TestLiTEqualsVirtualClock(t *testing.T) {
	run := func(useVC bool) []float64 {
		sim := event.New()
		net := network.New(sim, CellBits)
		var ports []*network.Port
		for i := 0; i < 5; i++ {
			var disc network.Discipline
			if useVC {
				disc = sched.NewVirtualClock()
			} else {
				disc = core.New(core.Config{Capacity: T1Rate, LMax: CellBits})
			}
			ports = append(ports, net.NewPort(fmt.Sprintf("n%d", i), T1Rate, PropDelay, disc))
		}
		r := rng.New(2024)
		var delays []float64
		cfgs := make([]network.SessionPort, 5)
		tagged := net.AddSession(1, VoiceRate, false, ports, cfgs,
			NewOnOff(0.1, r.Split()))
		tagged.SetOnDeliver(func(_ *packetAlias, d float64) { delays = append(delays, d) })
		for i := range ports {
			cfg := []network.SessionPort{{}}
			net.AddSession(2+i, T1Rate-VoiceRate, false, ports[i:i+1], cfg,
				&traffic.Poisson{Mean: CellBits / (T1Rate - VoiceRate), Length: CellBits, Rng: r.Split()})
		}
		for _, s := range net.Sessions() {
			s.Start(0, 20)
		}
		sim.Run(25)
		return delays
	}
	lit := run(false)
	vc := run(true)
	if len(lit) == 0 || len(lit) != len(vc) {
		t.Fatalf("delay counts differ: %d vs %d", len(lit), len(vc))
	}
	for i := range lit {
		if lit[i] != vc[i] {
			t.Fatalf("packet %d: LiT delay %v != VirtualClock delay %v", i, lit[i], vc[i])
		}
	}
}

// TestCalendarQueueApproximation: the approximate transmission queue
// may reorder within a bin, so per-packet delays can differ from the
// exact heap by at most the emulation error accumulated per hop, and
// the delay bound inflated by that error must still hold.
func TestCalendarQueueApproximation(t *testing.T) {
	run := func(approx bool) *network.Session {
		sim := event.New()
		net := network.New(sim, CellBits)
		var ports []*network.Port
		for i := 0; i < 5; i++ {
			disc := core.New(core.Config{Capacity: T1Rate, LMax: CellBits, Approximate: approx})
			ports = append(ports, net.NewPort(fmt.Sprintf("n%d", i), T1Rate, PropDelay, disc))
		}
		r := rng.New(7)
		cfgs := make([]network.SessionPort, 5)
		tagged := net.AddSession(1, VoiceRate, false, ports, cfgs, NewOnOff(0.05, r.Split()))
		for i := range ports {
			cfg := []network.SessionPort{{}}
			net.AddSession(2+i, T1Rate-VoiceRate, false, ports[i:i+1], cfg,
				&traffic.Poisson{Mean: CellBits / (T1Rate - VoiceRate) / 0.95, Length: CellBits, Rng: r.Split()})
		}
		for _, s := range net.Sessions() {
			s.Start(0, 20)
		}
		sim.Run(25)
		return tagged
	}
	exact := run(false)
	approx := run(true)
	if exact.Delivered == 0 || approx.Delivered == 0 {
		t.Fatal("no traffic")
	}
	// Emulation error: one bin width (LMax/C) of deadline reordering
	// per hop can delay a packet by at most one extra max-length
	// transmission time per queued conflict; allow a generous but
	// finite margin of 5 bins per hop.
	margin := 5.0 * 5 * CellBits / T1Rate
	if approx.Delays.Max() > exact.Delays.Max()+margin {
		t.Errorf("approximate queue delay %v exceeds exact %v + margin %v",
			approx.Delays.Max(), exact.Delays.Max(), margin)
	}
}

// packetAlias keeps the OnDeliver signature readable above.
type packetAlias = packet.Packet
