package sched

import (
	"math"
	"testing"

	"leaveintime/internal/network"
)

func TestRCSPPriorityOrder(t *testing.T) {
	r := NewRCSP(2)
	r.AddSessionLevel(network.SessionPort{Session: 1, LocalDelay: 0.01}, 2)
	r.AddSessionLevel(network.SessionPort{Session: 2, LocalDelay: 0.001}, 1)
	// Low-priority packet arrives first, high-priority second; the
	// high-priority one is served first.
	r.Enqueue(pkt(1, 1, 100), 0)
	r.Enqueue(pkt(2, 1, 100), 0)
	p, ok := r.Dequeue(0)
	if !ok || p.Session != 2 {
		t.Fatalf("first served %+v, want session 2 (level 1)", p)
	}
	p, _ = r.Dequeue(0)
	if p.Session != 1 {
		t.Fatal("level 2 packet lost")
	}
}

func TestRCSPRateControl(t *testing.T) {
	r := NewRCSP(1)
	r.AddSessionLevel(network.SessionPort{Session: 1, XMin: 1, LocalDelay: 0.5}, 1)
	// Three back-to-back arrivals: eligibility spaced by x_min.
	for i := int64(1); i <= 3; i++ {
		r.Enqueue(pkt(1, i, 100), 0)
	}
	p, ok := r.Dequeue(0)
	if !ok || p.Eligible != 0 {
		t.Fatalf("first packet: %+v", p)
	}
	if _, ok := r.Dequeue(0.5); ok {
		t.Fatal("second packet served before its x_min spacing")
	}
	if next, held := r.NextEligible(0.5); !held || next != 1 {
		t.Fatalf("NextEligible = (%v, %v), want (1, true)", next, held)
	}
	p, ok = r.Dequeue(1)
	if !ok || p.Eligible != 1 {
		t.Fatalf("second packet at 1: %+v, ok=%v", p, ok)
	}
	p, ok = r.Dequeue(5)
	if !ok || p.Eligible != 2 {
		t.Fatalf("third packet: eligible %v, want 2", p.Eligible)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRCSPFIFOWithinLevel(t *testing.T) {
	r := NewRCSP(1)
	r.AddSessionLevel(network.SessionPort{Session: 1, LocalDelay: 1}, 1)
	r.AddSessionLevel(network.SessionPort{Session: 2, LocalDelay: 1}, 1)
	r.Enqueue(pkt(1, 1, 100), 0)
	r.Enqueue(pkt(2, 1, 100), 0.1)
	a, _ := r.Dequeue(1)
	b, _ := r.Dequeue(1)
	if a.Session != 1 || b.Session != 2 {
		t.Fatal("level queue not FIFO")
	}
}

func TestRCSPJitterVariantCarriesSlack(t *testing.T) {
	r := NewRCSP(1)
	r.AddSessionLevel(network.SessionPort{Session: 1, LocalDelay: 2, JitterControl: true}, 1)
	p := pkt(1, 1, 100)
	r.Enqueue(p, 0) // deadline 2
	got, _ := r.Dequeue(0)
	r.OnTransmit(got, 0.5)
	if math.Abs(p.Hold-1.5) > 1e-12 {
		t.Errorf("Hold = %v, want 1.5", p.Hold)
	}
	// Next node holds for the slack.
	r2 := NewRCSP(1)
	r2.AddSessionLevel(network.SessionPort{Session: 1, LocalDelay: 2, JitterControl: true}, 1)
	r2.Enqueue(p, 1)
	if _, ok := r2.Dequeue(2); ok {
		t.Fatal("slack-held packet served early")
	}
	if _, ok := r2.Dequeue(2.5); !ok {
		t.Fatal("packet not released at eligibility")
	}
}

func TestRCSPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad level did not panic")
		}
	}()
	NewRCSP(2).AddSessionLevel(network.SessionPort{Session: 1}, 3)
}

func TestHRRSlotBudgetPerFrame(t *testing.T) {
	// One level, frame 1 s, session with 2 slots: at most 2 packets
	// may leave per frame even with a deep backlog.
	h := NewHRR(100, 1.0)
	h.AddSessionSlots(network.SessionPort{Session: 1, Rate: 200}, 1, 2)
	for i := int64(1); i <= 5; i++ {
		h.Enqueue(pkt(1, i, 100), 0.1)
	}
	var served []int64
	for {
		p, ok := h.Dequeue(0.2)
		if !ok {
			break
		}
		served = append(served, p.Seq)
	}
	if len(served) != 2 {
		t.Fatalf("frame served %d packets, want 2", len(served))
	}
	// The rest become available at the next frame boundary.
	if next, held := h.NextEligible(0.3); !held || next != 1 {
		t.Fatalf("NextEligible = (%v, %v), want (1, true)", next, held)
	}
	if p, ok := h.Dequeue(1); !ok || p.Seq != 3 {
		t.Fatalf("next frame first packet: %+v, ok=%v", p, ok)
	}
}

func TestHRRRoundRobin(t *testing.T) {
	h := NewHRR(100, 1.0)
	h.AddSessionSlots(network.SessionPort{Session: 1, Rate: 100}, 1, 2)
	h.AddSessionSlots(network.SessionPort{Session: 2, Rate: 100}, 1, 2)
	for i := int64(1); i <= 2; i++ {
		h.Enqueue(pkt(1, i, 100), 0)
		h.Enqueue(pkt(2, i, 100), 0)
	}
	var order []int
	for {
		p, ok := h.Dequeue(0)
		if !ok {
			break
		}
		order = append(order, p.Session)
	}
	want := []int{1, 2, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHRRMultiLevel(t *testing.T) {
	// Fast level (frame 0.1) and slow level (frame 1): the fast
	// session refreshes credit ten times as often.
	h := NewHRR(100, 0.1, 1.0)
	h.AddSessionSlots(network.SessionPort{Session: 1, Rate: 1000}, 1, 1)
	h.AddSessionSlots(network.SessionPort{Session: 2, Rate: 100}, 2, 1)
	for i := int64(1); i <= 3; i++ {
		h.Enqueue(pkt(1, i, 100), 0)
		h.Enqueue(pkt(2, i, 100), 0)
	}
	count := map[int]int{}
	for _, now := range []float64{0, 0.1, 0.2} {
		for {
			p, ok := h.Dequeue(now)
			if !ok {
				break
			}
			count[p.Session]++
		}
	}
	if count[1] != 3 {
		t.Errorf("fast session served %d of 3 in three fast frames", count[1])
	}
	if count[2] != 1 {
		t.Errorf("slow session served %d, want 1 (one slow frame)", count[2])
	}
}

func TestHRRAutoPlacement(t *testing.T) {
	h := NewHRR(100, 0.5)
	h.AddSession(network.SessionPort{Session: 1, Rate: 450})
	s := h.sessions.Get(1)
	// 450 bit/s * 0.5 s / 100 bits = 2.25 -> 3 slots.
	if s.slots != 3 || s.level != 1 {
		t.Errorf("auto placement: level %d slots %d", s.level, s.slots)
	}
}

func TestHRRValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHRR(0, 1) },
		func() { NewHRR(100) },
		func() { NewHRR(100, 1, 0.5) },
		func() { NewHRR(100, 1).AddSessionSlots(network.SessionPort{Session: 1}, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSCFQTags(t *testing.T) {
	s := NewSCFQ()
	s.AddSession(network.SessionPort{Session: 1, Rate: 100})
	s.AddSession(network.SessionPort{Session: 2, Rate: 100})
	// Both enqueue at t=0 with V=0: tags 1 and 1; session 1 first by
	// stamp. Serving session 1 advances V to 1, so a later packet of
	// session 2 anchors at V=1... its own chain says fPrev=1 too.
	a, b := pkt(1, 1, 100), pkt(2, 1, 100)
	s.Enqueue(a, 0)
	s.Enqueue(b, 0)
	p, _ := s.Dequeue(0)
	if p != a {
		t.Fatal("tag/stamp order")
	}
	c := pkt(1, 2, 100)
	s.Enqueue(c, 0)
	// c's tag: max(fPrev=1, V=1) + 1 = 2 > b's tag 1.
	if c.Deadline != 2 {
		t.Fatalf("tag = %v, want 2", c.Deadline)
	}
	p, _ = s.Dequeue(0)
	if p != b {
		t.Fatal("b should precede c")
	}
}

func TestSCFQSelfClockAdvances(t *testing.T) {
	s := NewSCFQ()
	s.AddSession(network.SessionPort{Session: 1, Rate: 100})
	s.AddSession(network.SessionPort{Session: 2, Rate: 100})
	a := pkt(1, 1, 100)
	s.Enqueue(a, 0) // tag 1
	s.Dequeue(0)    // V = 1
	// A new arrival of the other session anchors at V = 1: it cannot
	// get an older tag than the packet in service.
	b := pkt(2, 1, 100)
	s.Enqueue(b, 0.01)
	if b.Deadline != 2 {
		t.Fatalf("tag = %v, want V+L/w = 2", b.Deadline)
	}
}

func TestSCFQShares(t *testing.T) {
	// 3:1 weights, both backlogged: session 1 gets 3 of every 4 slots.
	s := NewSCFQ()
	s.AddSession(network.SessionPort{Session: 1, Rate: 750})
	s.AddSession(network.SessionPort{Session: 2, Rate: 250})
	for i := int64(1); i <= 9; i++ {
		s.Enqueue(pkt(1, i, 100), 0)
	}
	for i := int64(1); i <= 3; i++ {
		s.Enqueue(pkt(2, i, 100), 0)
	}
	count1 := 0
	for i := 0; i < 8; i++ {
		p, ok := s.Dequeue(0)
		if !ok {
			t.Fatal("drained early")
		}
		if p.Session == 1 {
			count1++
		}
	}
	if count1 != 6 {
		t.Errorf("session 1 got %d of 8, want 6", count1)
	}
}

func TestSCFQValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	NewSCFQ().AddSession(network.SessionPort{Session: 1})
}
