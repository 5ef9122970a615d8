package network_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// tandemOutcome is what a run of jitterTandem leaves behind, every
// field of it something a tracer must not change.
type tandemOutcome struct {
	sessions  string // Emitted, Delivered and Delays.Max bits per session
	pool      network.PoolStats
	clamped   []int64
	ports     []metrics.Port
	engine    metrics.Engine
	limitDrop int64
}

// jitterTandem runs twelve jitter-controlled Leave-in-Time sessions
// over a four-hop tandem, with one session's buffer limited at the
// second hop and another session dropped mid-run.
func jitterTandem(tr trace.Tracer) tandemOutcome {
	const (
		c     = 1536e3
		bits  = 424.0
		gamma = 1e-3
		rate  = 120e3
		end   = 2.0
	)
	sim := event.New()
	net := network.New(sim, bits)
	reg := metrics.NewRegistry()
	net.EnableMetrics(reg)
	net.Tracer = tr
	var route []*network.Port
	for i := 0; i < 4; i++ {
		route = append(route, net.NewPort(fmt.Sprintf("n%d", i), c, gamma, core.New(core.Config{Capacity: c, LMax: bits})))
	}
	r := rng.New(28)
	var sessions []*network.Session
	for id := 0; id < 12; id++ {
		src := &traffic.Poisson{Mean: bits / 110e3, Length: bits, Rng: r.Split()}
		s := net.AddSession(id, rate, true, route, make([]network.SessionPort, len(route)), src)
		s.Start(0, end)
		sessions = append(sessions, s)
	}
	probe := route[1].LimitBuffer(5, 2*bits)
	sim.Schedule(1.0, func() { net.DropSession(sessions[7]) })
	sim.Run(end + 1)

	o := tandemOutcome{pool: net.PoolStats(), ports: reg.PortCounters(), engine: reg.EngineCounters(),
		limitDrop: probe.DroppedPackets}
	for _, s := range sessions {
		o.sessions += fmt.Sprintf("%d %d %x\n", s.Emitted, s.Delivered, math.Float64bits(s.Delays.Max()))
	}
	for _, p := range route {
		o.clamped = append(o.clamped, p.HoldClamped)
	}
	return o
}

// TestTracerDoesNotPerturb: a traced run of the jitter-controlled
// tandem matches the bare run bit for bit, and its trace holds exactly
// one Arrive, TransmitStart and TransmitEnd per packet-hop. Every trace
// site tests the tracer before it builds its event, so an inverted
// guard panics the bare run and a misplaced one fails the count.
func TestTracerDoesNotPerturb(t *testing.T) {
	bare := jitterTandem(nil)
	rec := &trace.Recorder{}
	traced := jitterTandem(rec)
	if !reflect.DeepEqual(bare, traced) {
		t.Fatalf("the tracer perturbed the run:\nbare   %+v\ntraced %+v", bare, traced)
	}
	if bare.limitDrop == 0 || bare.pool.Live != 0 {
		t.Fatalf("limit drops %d, live packets %d: want drops and a drained pool", bare.limitDrop, bare.pool.Live)
	}

	// Per packet-hop (session, seq, hop) the trace reads Arrive, Start,
	// End and at the last hop Deliver (A S E V), or stops in a Drop (X):
	// refused on arrival, purged from the queue or under transmission. A
	// packet lost on the wire is dropped under the next hop's index,
	// before arriving there, or at the last hop after its End (A S E X).
	type hop struct {
		session int
		seq     int64
		hop     int
	}
	letter := map[trace.Kind]string{trace.Arrive: "A", trace.TransmitStart: "S",
		trace.TransmitEnd: "E", trace.Deliver: "V", trace.Drop: "X"}
	seen := map[hop]string{}
	count := map[trace.Kind]int64{}
	for _, e := range rec.Events {
		seen[hop{e.Session, e.Seq, e.Hop}] += letter[e.Kind]
		count[e.Kind]++
	}
	shapes := map[string]int{}
	for k, s := range seen {
		switch s {
		case "ASE", "ASEV", "X", "AX", "ASX", "ASEX":
			shapes[s]++
		default:
			t.Fatalf("packet-hop %+v traced %q", k, s)
		}
	}
	var arrivals, transmissions int64
	for _, p := range bare.ports {
		arrivals += p.Arrivals
		transmissions += p.Transmissions
	}
	if count[trace.Arrive] != arrivals || count[trace.TransmitEnd] != transmissions ||
		count[trace.TransmitStart] != transmissions+int64(shapes["ASX"]) {
		t.Fatalf("traced %d arrivals, %d starts, %d ends; the ports counted %d arrivals and %d transmissions",
			count[trace.Arrive], count[trace.TransmitStart], count[trace.TransmitEnd], arrivals, transmissions)
	}
	if shapes["AX"] == 0 {
		t.Fatalf("packet-hop shapes %v: want packets purged from a queue", shapes)
	}
	t.Logf("%d events, packet-hop shapes %v", len(rec.Events), shapes)
}
