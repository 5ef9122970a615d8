package sched

import (
	"math"
	"testing"
	"testing/quick"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
)

func pkt(session int, seq int64, length float64) *packet.Packet {
	return &packet.Packet{Session: session, Seq: seq, Length: length}
}

func TestFCFSOrder(t *testing.T) {
	f := NewFCFS()
	f.AddSession(network.SessionPort{Session: 1})
	for i := int64(1); i <= 5; i++ {
		f.Enqueue(pkt(1, i, 10), float64(i))
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d", f.Len())
	}
	for i := int64(1); i <= 5; i++ {
		p, ok := f.Dequeue(10)
		if !ok || p.Seq != i {
			t.Fatalf("dequeue %d: %+v", i, p)
		}
	}
	if _, ok := f.Dequeue(10); ok {
		t.Fatal("empty dequeue succeeded")
	}
	if _, held := f.NextEligible(0); held {
		t.Fatal("FCFS claims to hold packets")
	}
}

func TestVirtualClockStamps(t *testing.T) {
	v := NewVirtualClock()
	v.AddSession(network.SessionPort{Session: 1, Rate: 100})
	// eq. (2): F1 = max(0,0)+1 = 1; F2 = max(0.5,1)+1 = 2; F3(idle at
	// 10) = max(10,2)+1 = 11.
	p1, p2, p3 := pkt(1, 1, 100), pkt(1, 2, 100), pkt(1, 3, 100)
	v.Enqueue(p1, 0)
	v.Enqueue(p2, 0.5)
	for i, want := range map[*packet.Packet]float64{p1: 1, p2: 2} {
		if math.Abs(i.Deadline-want) > 1e-12 {
			t.Errorf("stamp = %v, want %v", i.Deadline, want)
		}
	}
	v.Dequeue(1)
	v.Dequeue(1)
	v.Enqueue(p3, 10)
	if math.Abs(p3.Deadline-11) > 1e-12 {
		t.Errorf("stamp after idle = %v, want 11", p3.Deadline)
	}
}

func TestVirtualClockInterleavesByRate(t *testing.T) {
	v := NewVirtualClock()
	v.AddSession(network.SessionPort{Session: 1, Rate: 100})
	v.AddSession(network.SessionPort{Session: 2, Rate: 300})
	// Both sessions dump 3 packets at t=0. Session 2 (3x the rate)
	// should get 3 of the first 4 slots.
	for i := int64(1); i <= 3; i++ {
		v.Enqueue(pkt(1, i, 100), 0)
		v.Enqueue(pkt(2, i, 100), 0)
	}
	var order []int
	for {
		p, ok := v.Dequeue(0)
		if !ok {
			break
		}
		order = append(order, p.Session)
	}
	// Stamps: s1: 1, 2, 3; s2: 1/3, 2/3, 1. Expected: 2,2,(1,2 tie at
	// 1.0 broken by enqueue order: s1 enqueued first),1,1.
	want := []int{2, 2, 1, 2, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDelayEDDDeadlines(t *testing.T) {
	d := NewDelayEDD()
	d.AddSession(network.SessionPort{Session: 1, LocalDelay: 2, XMin: 1})
	p1 := pkt(1, 1, 10)
	d.Enqueue(p1, 0)
	if p1.Deadline != 2 {
		t.Errorf("deadline = %v, want 2", p1.Deadline)
	}
	// A packet arriving too early is penalized to the declared spacing:
	// expected arrival = max(0.1, 0+1) = 1, deadline 3.
	p2 := pkt(1, 2, 10)
	d.Enqueue(p2, 0.1)
	if p2.Deadline != 3 {
		t.Errorf("early packet deadline = %v, want 3", p2.Deadline)
	}
	// A late packet resets the chain: expected arrival = max(5, 2) = 5.
	p3 := pkt(1, 3, 10)
	d.Enqueue(p3, 5)
	if p3.Deadline != 7 {
		t.Errorf("late packet deadline = %v, want 7", p3.Deadline)
	}
}

func TestDelayEDDRequiresBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero LocalDelay did not panic")
		}
	}()
	NewDelayEDD().AddSession(network.SessionPort{Session: 1})
}

func TestJitterEDDHoldsSlack(t *testing.T) {
	j := NewJitterEDD()
	j.AddSession(network.SessionPort{Session: 1, LocalDelay: 2, XMin: 1})
	p := pkt(1, 1, 10)
	j.Enqueue(p, 0) // deadline 2
	got, ok := j.Dequeue(0)
	if !ok {
		t.Fatal("no packet")
	}
	j.OnTransmit(got, 0.5) // finished 1.5 early
	if math.Abs(p.Hold-1.5) > 1e-12 {
		t.Fatalf("Hold = %v, want deadline - finish = 1.5", p.Hold)
	}

	// At the next node the packet is regulated for Hold seconds.
	j2 := NewJitterEDD()
	j2.AddSession(network.SessionPort{Session: 1, LocalDelay: 2, XMin: 1})
	j2.Enqueue(p, 1) // eligible at 2.5
	if _, ok := j2.Dequeue(2); ok {
		t.Fatal("regulated packet served early")
	}
	if next, held := j2.NextEligible(2); !held || math.Abs(next-2.5) > 1e-12 {
		t.Fatalf("NextEligible = (%v, %v)", next, held)
	}
	got, ok = j2.Dequeue(2.5)
	if !ok {
		t.Fatal("packet not released")
	}
	// Deadline at node 2 builds on the eligibility time: 2.5 + 2.
	if math.Abs(got.Deadline-4.5) > 1e-12 {
		t.Errorf("node-2 deadline = %v, want 4.5", got.Deadline)
	}
	if j2.Len() != 0 {
		t.Errorf("Len = %d", j2.Len())
	}
}

func TestStopAndGoFrameEligibility(t *testing.T) {
	g := NewStopAndGo(1.0)
	g.AddSession(network.SessionPort{Session: 1})
	p := pkt(1, 1, 10)
	g.Enqueue(p, 0.3) // arrives during frame [0,1): eligible at 1
	if _, ok := g.Dequeue(0.9); ok {
		t.Fatal("packet served in its arrival frame")
	}
	if next, held := g.NextEligible(0.9); !held || next != 1 {
		t.Fatalf("NextEligible = (%v, %v), want (1, true)", next, held)
	}
	got, ok := g.Dequeue(1)
	if !ok || got != p {
		t.Fatal("packet not served at frame start")
	}
	// A packet arriving exactly on a boundary waits for the next frame.
	p2 := pkt(1, 2, 10)
	g.Enqueue(p2, 2.0)
	if p2.Eligible != 3 {
		t.Errorf("boundary arrival eligible = %v, want 3", p2.Eligible)
	}
}

func TestStopAndGoFIFOWithinFrame(t *testing.T) {
	g := NewStopAndGo(1.0)
	g.AddSession(network.SessionPort{Session: 1})
	g.AddSession(network.SessionPort{Session: 2})
	a, b := pkt(1, 1, 10), pkt(2, 1, 10)
	g.Enqueue(a, 0.5)
	g.Enqueue(b, 0.6)
	first, _ := g.Dequeue(1)
	second, _ := g.Dequeue(1)
	if first != a || second != b {
		t.Fatal("frame service not FCFS")
	}
}

func TestWFQEqualWeightsShareEvenly(t *testing.T) {
	w := NewWFQ(1000)
	w.AddSession(network.SessionPort{Session: 1, Rate: 500})
	w.AddSession(network.SessionPort{Session: 2, Rate: 500})
	// Both backlogged from t=0 with 4 packets each.
	for i := int64(1); i <= 4; i++ {
		w.Enqueue(pkt(1, i, 100), 0)
		w.Enqueue(pkt(2, i, 100), 0)
	}
	var order []int
	for {
		p, ok := w.Dequeue(0)
		if !ok {
			break
		}
		order = append(order, p.Session)
	}
	// Finish tags interleave exactly: 0.2, 0.2, 0.4, 0.4, ...
	want := []int{1, 2, 1, 2, 1, 2, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWFQWeightedShares(t *testing.T) {
	// 3:1 weights: session 1 should get ~3 of every 4 slots.
	w := NewWFQ(1000)
	w.AddSession(network.SessionPort{Session: 1, Rate: 750})
	w.AddSession(network.SessionPort{Session: 2, Rate: 250})
	for i := int64(1); i <= 9; i++ {
		w.Enqueue(pkt(1, i, 100), 0)
	}
	for i := int64(1); i <= 3; i++ {
		w.Enqueue(pkt(2, i, 100), 0)
	}
	count1 := 0
	for i := 0; i < 8; i++ {
		p, ok := w.Dequeue(0)
		if !ok {
			t.Fatal("queue drained early")
		}
		if p.Session == 1 {
			count1++
		}
	}
	if count1 != 6 {
		t.Errorf("session 1 got %d of first 8 slots, want 6", count1)
	}
}

// TestWFQVirtualTimeIdle: after the GPS system drains, virtual time
// freezes and a new arrival starts at V (not at stale session tags).
func TestWFQVirtualTimeIdle(t *testing.T) {
	w := NewWFQ(1000)
	w.AddSession(network.SessionPort{Session: 1, Rate: 500})
	p1 := pkt(1, 1, 100)
	w.Enqueue(p1, 0) // S=0, F=0.2; GPS busy until real 0.1 (alone: rate... )
	w.Dequeue(0)
	// Long idle, then a new packet: its virtual start must be V >= old
	// F, and its deadline strictly after p1's.
	p2 := pkt(1, 2, 100)
	w.Enqueue(p2, 100)
	if p2.Deadline <= p1.Deadline {
		t.Errorf("second stamp %v not after first %v", p2.Deadline, p1.Deadline)
	}
}

// TestWFQMatchesVirtualClockWhenAlone: a single session's WFQ finish
// tags advance by L/w per back-to-back packet, like VirtualClock in
// virtual units.
func TestWFQSingleSessionTagSpacing(t *testing.T) {
	w := NewWFQ(1000)
	w.AddSession(network.SessionPort{Session: 1, Rate: 1000})
	var prev float64
	for i := int64(1); i <= 5; i++ {
		p := pkt(1, i, 100)
		w.Enqueue(p, 0)
		if i > 1 && math.Abs(p.Deadline-prev-0.1) > 1e-9 {
			t.Fatalf("tag spacing = %v, want 0.1", p.Deadline-prev)
		}
		prev = p.Deadline
	}
}

// TestWFQPropertyConservation: total dequeue count equals enqueue
// count and per-session order is FIFO, under random arrivals.
func TestWFQPropertyConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		w := NewWFQ(1000)
		rates := []float64{100, 300, 600}
		for s, rate := range rates {
			w.AddSession(network.SessionPort{Session: s + 1, Rate: rate})
		}
		clock := 0.0
		sent := 0
		lastSeq := map[int]int64{}
		seq := map[int]int64{}
		for i := 0; i < 300; i++ {
			clock += r.Exp(0.05)
			s := 1 + r.Intn(3)
			seq[s]++
			w.Enqueue(pkt(s, seq[s], 50+r.Float64()*200), clock)
			sent++
		}
		got := 0
		for {
			p, ok := w.Dequeue(clock)
			if !ok {
				break
			}
			got++
			if p.Seq <= lastSeq[p.Session] {
				return false // per-session FIFO violated
			}
			lastSeq[p.Session] = p.Seq
		}
		return got == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWFQPanicsWithoutRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	NewWFQ(1000).AddSession(network.SessionPort{Session: 1})
}

func TestStopAndGoPanicsOnBadFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero frame did not panic")
		}
	}()
	NewStopAndGo(0)
}

// TestWFQPurgedTagsStayStale: a purged session's GPS tags are still in
// the backlog heap when its id is admitted again, into the same table
// slot. They must not pass for the new tenant's tags, however the new
// tags compare with them.
func TestWFQPurgedTagsStayStale(t *testing.T) {
	w := NewWFQ(1000)
	w.AddSession(network.SessionPort{Session: 1, Rate: 100})
	w.AddSession(network.SessionPort{Session: 2, Rate: 100})
	for seq := int64(1); seq <= 3; seq++ {
		w.Enqueue(pkt(1, seq, 100), 0) // tags 1, 2, 3
	}
	w.Enqueue(pkt(2, 1, 100), 0)
	w.PurgeSession(1, func(*packet.Packet) {})
	w.AddSession(network.SessionPort{Session: 1, Rate: 100})
	w.Enqueue(pkt(1, 4, 1000), 0) // tag 10, past every old one
	live := 0
	for {
		if _, ok := w.peekBacklog(); !ok {
			break
		}
		live++
		w.backlog.popMin()
	}
	if live != 2 {
		t.Fatalf("%d live backlog tags, want session 2's and the re-admitted session 1's", live)
	}
}
