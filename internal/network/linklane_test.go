package network_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// TestLinkLaneGolden pins the link path bit for bit. Two entrance
// ports feed a two-hop tail over 4 ms links, so every link carries
// several packets at once; sessions 0 and 6 emit in lockstep on the two
// entrances, so their deliveries at the shared port tie in time and are
// ordered by the canonical stamp alone; two outages lose packets on the
// wire (one from outside the run, one from inside a handler) and a
// jitter-controlled session is dropped mid-run. The digests — the full
// trace, the per-session statistics, the fired-event count — were
// recorded at commit c0b3855, when every in-flight packet had its own
// delivery event in the engine.
func TestLinkLaneGolden(t *testing.T) {
	const (
		c     = 1536e3
		bits  = 424.0
		gamma = 4e-3
		rate  = 96e3
		end   = 1.5
	)
	sim := event.New()
	net := network.New(sim, bits)
	reg := metrics.NewRegistry()
	net.EnableMetrics(reg)
	rec := &trace.Recorder{}
	net.Tracer = rec
	port := func(name string) *network.Port {
		return net.NewPort(name, c, gamma, core.New(core.Config{Capacity: c, LMax: bits}))
	}
	a1, a2, b, tail := port("a1"), port("a2"), port("b"), port("c")

	r := rng.New(18)
	var sessions []*network.Session
	upstream := map[int]string{}
	for id := 0; id < 12; id++ {
		first := a1
		if id >= 6 {
			first = a2
		}
		upstream[id] = first.Name
		var src traffic.Source = &traffic.Poisson{Mean: bits / 90e3, Length: bits, Rng: r.Split()}
		if id%6 == 0 {
			src = &traffic.Deterministic{Interval: bits / rate, Length: bits}
		}
		route := []*network.Port{first, b, tail}
		s := net.AddSession(id, rate, id%2 == 1, route, make([]network.SessionPort, len(route)), src)
		s.Start(0, end)
		sessions = append(sessions, s)
	}

	sim.Run(0.5)
	b.FailLink()
	sim.Run(0.52)
	b.RestoreLink()
	sim.Schedule(0.8, a1.FailLink)
	sim.Schedule(0.81, a1.RestoreLink)
	sim.Schedule(1.0, func() { net.DropSession(sessions[3]) })
	sim.Run(end + 1)

	// What the run must have exercised, read off the trace.
	type pkt struct {
		session int
		seq     int64
	}
	onWire := map[pkt]string{}
	inFlight, highWater := map[string]int{}, map[string]int{}
	drops := map[string]int{}
	ties := 0
	var last trace.Event
	th := fnv.New64a()
	for _, e := range rec.Events {
		fmt.Fprintf(th, "%x %d %s %d %d %d %x %x %s\n", math.Float64bits(e.Time), e.Kind, e.Port,
			e.Session, e.Seq, e.Hop, math.Float64bits(e.Eligible), math.Float64bits(e.Deadline), e.Cause)
		k := pkt{e.Session, e.Seq}
		switch e.Kind {
		case trace.TransmitEnd:
			onWire[k] = e.Port
			inFlight[e.Port]++
			if inFlight[e.Port] > highWater[e.Port] {
				highWater[e.Port] = inFlight[e.Port]
			}
		case trace.Arrive, trace.Deliver, trace.Drop:
			if from, ok := onWire[k]; ok {
				inFlight[from]--
				delete(onWire, k)
				if e.Kind == trace.Drop {
					drops["wire/"+e.Cause]++
				}
			}
			if e.Kind == trace.Arrive && e.Port == "b" {
				if last.Kind == trace.Arrive && last.Port == "b" && last.Time == e.Time &&
					upstream[last.Session] != upstream[e.Session] {
					ties++
				}
			}
			if e.Kind == trace.Drop {
				drops[e.Cause]++
			}
		}
		if e.Kind == trace.Arrive {
			last = e
		}
	}
	for _, p := range net.Ports() {
		if highWater[p.Name] < 3 {
			t.Errorf("port %s: at most %d packets in flight, want 3 or more", p.Name, highWater[p.Name])
		}
	}
	if drops["wire/fault"] < 6 || drops["wire/purge"] < 1 || ties < 10 {
		t.Errorf("lost on the wire %d to faults and %d to the purge, %d cross-port ties: want 6, 1, 10 or more",
			drops["wire/fault"], drops["wire/purge"], ties)
	}

	sh := fnv.New64a()
	for _, s := range sessions {
		fmt.Fprintf(sh, "%d %d %x %x %x\n", s.Emitted, s.Delivered, math.Float64bits(s.Delays.Max()),
			math.Float64bits(s.Delays.Mean()), math.Float64bits(s.Delays.Jitter()))
	}
	a := reg.Arena()
	got := fmt.Sprintf("trace %016x sessions %016x events %d fired %d canceled %d",
		th.Sum64(), sh.Sum64(), len(rec.Events), a.Int(metrics.HEngineFired), a.Int(metrics.HEngineCanceled))
	const want = "trace 418520c7f2077e43 sessions 47ff8633f09d9a5f events 37414 fired 26899 canceled 2119"
	if got != want {
		t.Errorf("link path changed:\n got %s\nwant %s", got, want)
	}
	t.Logf("in flight %v, drops %v, ties %d", highWater, drops, ties)
}
