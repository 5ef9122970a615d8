package packet_test

import (
	"math"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/traffic"
)

// TestZeroValue: the zero Packet is a valid "no history" packet — no
// holding time, no stamps — and packets are plain values: copies are
// independent, as the pool's zero-on-release recycling requires.
func TestZeroValue(t *testing.T) {
	var p packet.Packet
	if p.Hold != 0 || p.Hop != 0 || p.Seq != 0 || p.Length != 0 {
		t.Fatalf("zero packet carries state: %+v", p)
	}
	p.Session, p.Seq, p.Length, p.Hold = 7, 3, 424, 1.5e-3
	q := p
	q.Hold = 0
	q.Hop++
	if p.Hold != 1.5e-3 || p.Hop != 0 {
		t.Errorf("copying a packet aliased its fields: %+v vs %+v", p, q)
	}
	p = packet.Packet{}
	if p != (packet.Packet{}) {
		t.Errorf("reset packet not zero: %+v", p)
	}
}

// TestHoldingTimeRoundTrip: the holding time A (eq. 9) computed at one
// Leave-in-Time node travels in the packet header and delays the
// packet's eligibility at the next node by exactly that amount
// (eqs. 6-7). This is the paper's single header field doing its job
// across two nodes, without a network in between.
func TestHoldingTimeRoundTrip(t *testing.T) {
	const (
		capacity = 1000.0
		lMax     = 256.0
		rate     = 100.0
		length   = 200.0
	)
	cfg := network.SessionPort{
		Session: 1, Rate: rate, JitterControl: true,
		D:    func(l float64) float64 { return l / rate },
		DMax: lMax / rate,
	}

	up := core.New(core.Config{Capacity: capacity, LMax: lMax})
	up.AddSession(cfg)
	p := &packet.Packet{Session: 1, Seq: 1, Length: length, SourceTime: 0}
	up.Enqueue(p, 0)
	got, ok := up.Dequeue(0)
	if !ok || got != p {
		t.Fatal("upstream node did not serve the enqueued packet")
	}
	// Transmission finishes early (the link was idle): the slack
	// F + L_MAX/C - finish plus d_max - d_i becomes the holding time.
	finish := 0 + length/capacity
	up.OnTransmit(p, finish)
	want := p.Deadline + lMax/capacity - finish + p.DelayMax - p.Delay
	if math.Abs(p.Hold-want) > 1e-12 || p.Hold <= 0 {
		t.Fatalf("holding time: got %v, want %v (>0)", p.Hold, want)
	}

	// The header field is all the downstream node sees: arrival at t2
	// must not be eligible before t2 + Hold.
	down := core.New(core.Config{Capacity: capacity, LMax: lMax})
	down.AddSession(cfg)
	t2 := finish + 0.001 // after the link's propagation
	hold := p.Hold
	p.Hop++
	down.Enqueue(p, t2)
	if _, ok := down.Dequeue(t2); ok {
		t.Fatal("packet served before its holding time elapsed")
	}
	next, ok := down.NextEligible(t2)
	if !ok || math.Abs(next-(t2+hold)) > 1e-12 {
		t.Fatalf("downstream eligibility %v, want arrival+hold = %v", next, t2+hold)
	}
	if _, ok := down.Dequeue(t2 + hold); !ok {
		t.Fatal("packet not served once the holding time elapsed")
	}
}

// TestLengthBitsAccounting: Length is in bits — a packet of L bits on a
// C bit/s link occupies it for exactly L/C seconds, and delivery
// happens one propagation delay later. Verified end to end through a
// port, including per-packet variation.
func TestLengthBitsAccounting(t *testing.T) {
	const (
		capacity = 1e6
		gamma    = 2e-3
	)
	sim := event.New()
	net := network.New(sim, 1000)
	port := net.NewPort("n0", capacity, gamma, core.New(core.Config{Capacity: capacity, LMax: 1000}))
	// Two emissions far enough apart that the link idles in between:
	// each packet's delivery time is emission + L/C + gamma exactly.
	src := &traffic.Trace{Gaps: []float64{0.1, 0.4}, Lengths: []float64{424, 1000}}
	sess := net.AddSession(1, 1000, false, []*network.Port{port}, []network.SessionPort{{}}, src)

	type arrival struct {
		at     float64
		length float64
	}
	var got []arrival
	sess.SetOnDeliver(func(p *packet.Packet, delay float64) {
		got = append(got, arrival{at: p.SourceTime + delay, length: p.Length})
	})
	sess.Start(0, 1)
	sim.RunAll()

	want := []arrival{
		{at: 0.1 + 424/capacity + gamma, length: 424},
		{at: 0.5 + 1000/capacity + gamma, length: 1000},
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].length != want[i].length || math.Abs(got[i].at-want[i].at) > 1e-12 {
			t.Errorf("packet %d: delivered %v bits at %v, want %v bits at %v",
				i, got[i].length, got[i].at, want[i].length, want[i].at)
		}
	}
	if sess.Delivered != 2 || sess.Emitted != 2 {
		t.Errorf("emitted %d delivered %d, want 2 and 2", sess.Emitted, sess.Delivered)
	}
}
