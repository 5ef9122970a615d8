package network

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"leaveintime/internal/event"
	"leaveintime/internal/packet"
	"leaveintime/internal/traffic"
)

// echoDisc is a minimal work-conserving FIFO discipline for driving the
// port machinery in isolation.
type echoDisc struct {
	q         []*packet.Packet
	hold      float64 // optional per-packet regulator delay
	heldUntil []float64
}

func (e *echoDisc) AddSession(SessionPort) {}

func (e *echoDisc) Enqueue(p *packet.Packet, now float64) {
	e.q = append(e.q, p)
	e.heldUntil = append(e.heldUntil, now+e.hold)
}

func (e *echoDisc) Dequeue(now float64) (*packet.Packet, bool) {
	for i, p := range e.q {
		if p != nil && e.heldUntil[i] <= now {
			e.q[i] = nil
			return p, true
		}
	}
	return nil, false
}

func (e *echoDisc) NextEligible(now float64) (float64, bool) {
	best := math.Inf(1)
	for i, p := range e.q {
		if p != nil && e.heldUntil[i] < best {
			best = e.heldUntil[i]
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

func (e *echoDisc) OnTransmit(p *packet.Packet, finish float64) { p.Hold = 0 }

func (e *echoDisc) Len() int {
	n := 0
	for _, p := range e.q {
		if p != nil {
			n++
		}
	}
	return n
}

func TestUncontendedDelay(t *testing.T) {
	// One packet through two hops: delay = 2*(L/C + Gamma).
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0.01, &echoDisc{})
	p2 := net.NewPort("b", 1000, 0.01, &echoDisc{})
	src := &traffic.Trace{Gaps: []float64{0.5}, Lengths: []float64{100}}
	s := net.AddSession(1, 100, false, []*Port{p1, p2},
		make([]SessionPort, 2), src)
	s.Start(0, 10)
	sim.Run(100)
	if s.Delivered != 1 {
		t.Fatalf("delivered %d packets", s.Delivered)
	}
	want := 2 * (100.0/1000 + 0.01)
	if math.Abs(s.Delays.Max()-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", s.Delays.Max(), want)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	// Two packets injected simultaneously on one hop: second waits for
	// the first's transmission.
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	src := &traffic.Trace{Gaps: []float64{1, 0}, Lengths: []float64{100, 100}}
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), src)
	s.Start(0, 10)
	sim.Run(100)
	if s.Delivered != 2 {
		t.Fatalf("delivered %d", s.Delivered)
	}
	if math.Abs(s.Delays.Min()-0.1) > 1e-12 || math.Abs(s.Delays.Max()-0.2) > 1e-12 {
		t.Errorf("delays [%v, %v], want [0.1, 0.2]", s.Delays.Min(), s.Delays.Max())
	}
}

func TestNonWorkConservingWakeup(t *testing.T) {
	// A discipline that holds packets 0.5 s: the port must sleep and
	// wake rather than spin or serve early.
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{hold: 0.5})
	src := &traffic.Trace{Gaps: []float64{1}, Lengths: []float64{100}}
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), src)
	s.Start(0, 10)
	sim.Run(100)
	if s.Delivered != 1 {
		t.Fatalf("delivered %d", s.Delivered)
	}
	want := 0.5 + 0.1 // hold + transmission
	if math.Abs(s.Delays.Max()-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", s.Delays.Max(), want)
	}
}

func TestUtilizationMeasured(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	// 5 packets of 100 bits over 10 s: busy 0.5 s.
	src := &traffic.Trace{
		Gaps:    []float64{1, 1, 1, 1, 1},
		Lengths: []float64{100, 100, 100, 100, 100},
	}
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), src)
	p1.Util.Start(0)
	s.Start(0, 10)
	sim.Run(10)
	if got := p1.Util.Value(10); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("utilization = %v, want 0.05", got)
	}
}

func TestBufferProbeCountsTransmission(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	probe := p1.TrackBuffer(1)
	src := &traffic.Trace{Gaps: []float64{1, 0, 0}, Lengths: []float64{100, 100, 100}}
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), src)
	s.Start(0, 10)
	sim.Run(100)
	// Third arrival sees 3 packets present (one transmitting, two
	// queued).
	if probe.Dist.Max() != 3 {
		t.Errorf("max occupancy = %d packets, want 3", probe.Dist.Max())
	}
	if probe.Bits != 0 {
		t.Errorf("residual bits = %v after drain", probe.Bits)
	}
	if math.Abs(probe.MaxBits-300) > 1e-9 {
		t.Errorf("MaxBits = %v, want 300", probe.MaxBits)
	}
}

func TestStopEmitRespected(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	src := &traffic.Deterministic{Interval: 1, Length: 100}
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), src)
	s.Start(0, 5.5) // packets at 1..5
	sim.Run(100)
	if s.Emitted != 5 {
		t.Errorf("emitted %d, want 5", s.Emitted)
	}
	if !s.Started() {
		t.Error("Started() false after Start")
	}
}

func TestInjectAt(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)
	s.InjectAt(0, 100)
	sim.Run(10)
	if s.Delivered != 1 {
		t.Fatalf("delivered %d", s.Delivered)
	}
}

func TestOnDeliverHookAndHistogram(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)
	hist := s.MeasureHistogram(0.01, 100)
	var hookDelay float64
	s.SetOnDeliver(func(p *packet.Packet, d float64) { hookDelay = d })
	s.InjectAt(0, 100)
	sim.Run(10)
	if hookDelay != 0.1 {
		t.Errorf("hook delay = %v", hookDelay)
	}
	if hist.Count() != 1 {
		t.Errorf("histogram count = %d", hist.Count())
	}
}

func TestHoldClampCounter(t *testing.T) {
	// A discipline that emits negative holds must be clamped and
	// counted.
	sim := event.New()
	net := New(sim, 1000)
	bad := &negHoldDisc{}
	p1 := net.NewPort("a", 1000, 0, bad)
	p2 := net.NewPort("b", 1000, 0, &echoDisc{})
	s := net.AddSession(1, 100, false, []*Port{p1, p2}, make([]SessionPort, 2), nil)
	s.InjectAt(0, 100)
	sim.Run(10)
	if p1.HoldClamped != 1 {
		t.Errorf("HoldClamped = %d, want 1", p1.HoldClamped)
	}
	if s.Delivered != 1 {
		t.Errorf("delivered %d", s.Delivered)
	}
}

type negHoldDisc struct{ echoDisc }

func (n *negHoldDisc) OnTransmit(p *packet.Packet, finish float64) { p.Hold = -1 }

func TestValidationPanics(t *testing.T) {
	sim := event.New()
	for _, fn := range []func(){
		func() { New(sim, 0) },
		func() { New(sim, 10).NewPort("x", 0, 0, &echoDisc{}) },
		func() {
			n := New(sim, 10)
			n.AddSession(1, 1, false, nil, nil, nil)
		},
		func() {
			n := New(sim, 10)
			p := n.NewPort("x", 1, 0, &echoDisc{})
			n.AddSession(1, 1, false, []*Port{p}, nil, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAccessorsAndLimitBuffer(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	if len(net.Ports()) != 1 || net.Ports()[0] != p1 {
		t.Error("Ports accessor")
	}
	probe := p1.LimitBuffer(1, 150) // fits one 100-bit packet only
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)
	if len(net.Sessions()) != 1 {
		t.Error("Sessions accessor")
	}
	s.InjectAt(0, 100)
	s.InjectAt(0, 100) // exceeds the 150-bit allocation: dropped
	sim.Run(10)
	if probe.DroppedPackets != 1 || probe.DroppedBits != 100 {
		t.Errorf("drops = %d / %v", probe.DroppedPackets, probe.DroppedBits)
	}
	if s.Delivered != 1 {
		t.Errorf("delivered %d", s.Delivered)
	}
	net.RemoveSession(s)
	if len(net.Sessions()) != 0 {
		t.Error("RemoveSession left the session registered")
	}
}

// TestUnregisterKeepsOrder removes the first, a middle, the last and
// the only session and checks that Sessions() keeps the swap-with-last
// order, that every survivor knows its slot, and that removing twice
// (RemoveSession after DropSession) is a no-op.
func TestUnregisterKeepsOrder(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p := net.NewPort("a", 1000, 0, &echoDisc{})
	var s []*Session
	for id := 0; id < 6; id++ {
		s = append(s, net.AddSession(id, 100, false, []*Port{p}, make([]SessionPort, 1), nil))
	}
	check := func(step string, want ...int) {
		t.Helper()
		got := net.Sessions()
		if len(got) != len(want) {
			t.Fatalf("%s: %d sessions, want %d", step, len(got), len(want))
		}
		for i, sess := range got {
			if sess.ID != want[i] || int(sess.slot) != i {
				t.Fatalf("%s: slot %d holds session %d (slot field %d), want session %d",
					step, i, sess.ID, sess.slot, want[i])
			}
		}
	}
	check("built", 0, 1, 2, 3, 4, 5)
	net.RemoveSession(s[0])
	check("first", 5, 1, 2, 3, 4)
	net.RemoveSession(s[2])
	check("middle", 5, 1, 4, 3)
	net.RemoveSession(s[3])
	check("last", 5, 1, 4)
	net.RemoveSession(s[3])
	net.RemoveSession(s[0])
	check("again", 5, 1, 4)
	net.DropSession(s[5])
	net.RemoveSession(s[5])
	check("dropped", 4, 1)
	net.RemoveSession(s[4])
	net.RemoveSession(s[1])
	check("only")
	if net.sessionByID(1) != nil {
		t.Fatal("removed session still routed")
	}
	check("rebuilt", net.AddSession(7, 100, false, []*Port{p}, make([]SessionPort, 1), nil).ID)
}

// countingDisc counts the sessions registered with it.
type countingDisc struct {
	echoDisc
	added int
}

func (c *countingDisc) AddSession(SessionPort) { c.added++ }

// TestRefusedIDLeavesNothing: a negative id is refused before any port
// of the route has heard of the session.
func TestRefusedIDLeavesNothing(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	d1, d2 := &countingDisc{}, &countingDisc{}
	route := []*Port{net.NewPort("a", 1000, 0, d1), net.NewPort("b", 1000, 0, d2)}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddSession(-1) did not panic")
			}
		}()
		net.AddSession(-1, 100, false, route, make([]SessionPort, 2), nil)
	}()
	if d1.added != 0 || d2.added != 0 {
		t.Errorf("refused session registered at %d and %d ports' disciplines", d1.added, d2.added)
	}
	if len(net.Sessions()) != 0 || net.sessionByID(-1) != nil {
		t.Error("refused session left in the network")
	}
}

// TestDuplicateIDRefused: AddSession of an id that is still established
// panics at the call, naming the id, before any port hears of the second
// session, and leaves the first session routed and listed alone. Once
// the first is removed or dropped, the id may be added again, as a
// document's re-SETUP does.
func TestDuplicateIDRefused(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	d := &countingDisc{}
	route := []*Port{net.NewPort("a", 1000, 0, d)}
	add := func() *Session { return net.AddSession(3, 100, false, route, make([]SessionPort, 1), nil) }
	first := add()
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "session id 3 ") {
				t.Errorf("second AddSession(3) recovered %v, want a panic naming id 3", r)
			}
		}()
		add()
	}()
	if d.added != 1 {
		t.Errorf("refused session registered at the port's discipline: %d sessions added", d.added)
	}
	if got := net.Sessions(); len(got) != 1 || got[0] != first || net.sessionByID(3) != first {
		t.Fatalf("after the refusal: Sessions() = %v, id 3 routes to %p, want only %p", got, net.sessionByID(3), first)
	}
	net.RemoveSession(first)
	second := add()
	net.DropSession(second)
	third := add()
	if got := net.Sessions(); len(got) != 1 || got[0] != third || net.sessionByID(3) != third {
		t.Fatalf("re-added after RemoveSession and DropSession: Sessions() = %v, id 3 routes to %p, want only %p", got, net.sessionByID(3), third)
	}
}
