package core

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
)

func newTestLiT() *LiT {
	return New(Config{Capacity: 1000, LMax: 100})
}

func mkpkt(session int, seq int64, length float64) *packet.Packet {
	return &packet.Packet{Session: session, Seq: seq, Length: length}
}

// TestDeadlineRecursion hand-checks eqs. (10) and (11) with d = L/r
// (one class): rate 100 bit/s, packets of 100 bits, so L/r = 1 s.
func TestDeadlineRecursion(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100})

	cases := []struct {
		arrive float64
		wantF  float64
	}{
		{0, 1},   // K0 = t1 = 0; F1 = max(0,0)+1 = 1
		{0.2, 2}, // K1 = 1; F2 = max(0.2,1)+1 = 2
		{5, 6},   // idle: K2 = 2; F3 = max(5,2)+1 = 6
	}
	for i, c := range cases {
		p := mkpkt(1, int64(i+1), 100)
		l.Enqueue(p, c.arrive)
		if math.Abs(p.Deadline-c.wantF) > 1e-12 {
			t.Errorf("packet %d: deadline %v, want %v", i+1, p.Deadline, c.wantF)
		}
		if p.Eligible != c.arrive {
			t.Errorf("packet %d: eligible %v, want arrival (no jitter control)", i+1, p.Eligible)
		}
	}
}

// TestCustomDRecursion checks the d/K split of eqs. (10)-(11): with
// d != L/r, F uses d but the K chain advances by L/r.
func TestCustomDRecursion(t *testing.T) {
	l := newTestLiT()
	d := 0.25
	l.AddSession(network.SessionPort{
		Session: 1, Rate: 100,
		D:    func(float64) float64 { return d },
		DMax: d,
	})
	p1 := mkpkt(1, 1, 100)
	l.Enqueue(p1, 0)
	// F1 = max(0, K0=0) + 0.25; K1 = 0 + 1.
	if math.Abs(p1.Deadline-0.25) > 1e-12 {
		t.Errorf("F1 = %v, want 0.25", p1.Deadline)
	}
	p2 := mkpkt(1, 2, 100)
	l.Enqueue(p2, 0.1)
	// Base = max(0.1, K1=1) = 1; F2 = 1.25, NOT 0.5: the deadline
	// chain is coupled to the reserved rate through K, not through F.
	if math.Abs(p2.Deadline-1.25) > 1e-12 {
		t.Errorf("F2 = %v, want 1.25", p2.Deadline)
	}
}

// TestLiTDelayMemo: Enqueue remembers d at the last length it saw.
// Over lengths that repeat, change and repeat again, every packet's
// Delay must equal D(Length) bit for bit, and D must be called exactly
// once per change of length (the first packet counts as one). The
// VirtualClock session, with no D, must get L/r for every packet.
func TestLiTDelayMemo(t *testing.T) {
	d := func(l float64) float64 { return l*0.7/(120e3*1536e3) + 0.0125 }
	calls := 0
	l := New(Config{Capacity: 1536e3, LMax: 424})
	l.AddSession(network.SessionPort{Session: 1, Rate: 120e3,
		D: func(length float64) float64 { calls++; return d(length) }, DMax: d(424)})
	l.AddSession(network.SessionPort{Session: 2, Rate: 96e3})
	lengths := []float64{0, 424, 424, 100, 100, 100, 424, 424, 53, 100, 100, 0}
	changes := 0
	for i, length := range lengths {
		if i == 0 || length != lengths[i-1] {
			changes++
		}
		p, q := mkpkt(1, int64(i+1), length), mkpkt(2, int64(i+1), length)
		l.Enqueue(p, float64(i))
		l.Enqueue(q, float64(i))
		if math.Float64bits(p.Delay) != math.Float64bits(d(length)) {
			t.Errorf("packet %d (L=%v): Delay %v, want D(L) = %v", i+1, length, p.Delay, d(length))
		}
		if math.Float64bits(q.Delay) != math.Float64bits(length/96e3) {
			t.Errorf("packet %d (L=%v): VirtualClock Delay %v, want L/r = %v", i+1, length, q.Delay, length/96e3)
		}
		if calls != changes {
			t.Fatalf("after packet %d: D called %d times for %d changes of length", i+1, calls, changes)
		}
	}
}

func TestServiceOrderByDeadline(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100})
	l.AddSession(network.SessionPort{Session: 2, Rate: 1000})
	// Session 1: L/r = 1 s; session 2: L/r = 0.1 s. Same arrival time:
	// session 2's packet has the earlier deadline.
	a := mkpkt(1, 1, 100)
	b := mkpkt(2, 1, 100)
	l.Enqueue(a, 0)
	l.Enqueue(b, 0)
	got, ok := l.Dequeue(0)
	if !ok || got.Session != 2 {
		t.Fatalf("first dequeue = %+v, want session 2", got)
	}
	got, ok = l.Dequeue(0)
	if !ok || got.Session != 1 {
		t.Fatalf("second dequeue = %+v, want session 1", got)
	}
	if _, ok := l.Dequeue(0); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100})
	l.AddSession(network.SessionPort{Session: 2, Rate: 100})
	a := mkpkt(1, 1, 100)
	b := mkpkt(2, 1, 100)
	l.Enqueue(a, 0) // same deadline; enqueue order breaks the tie
	l.Enqueue(b, 0)
	got, _ := l.Dequeue(0)
	if got.Session != 1 {
		t.Fatalf("tie broken against enqueue order: session %d first", got.Session)
	}
}

// TestRegulatorHoldsUntilEligible: a jitter-controlled packet with a
// positive Hold is not served before its eligibility time.
func TestRegulatorHoldsUntilEligible(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100, JitterControl: true})
	p := mkpkt(1, 1, 100)
	p.Hold = 2.5 // from the upstream node
	l.Enqueue(p, 1)
	if p.Eligible != 3.5 {
		t.Fatalf("eligible = %v, want t + A = 3.5", p.Eligible)
	}
	if _, ok := l.Dequeue(2); ok {
		t.Fatal("regulated packet served before its eligibility time")
	}
	if next, ok := l.NextEligible(2); !ok || next != 3.5 {
		t.Fatalf("NextEligible = (%v, %v), want (3.5, true)", next, ok)
	}
	got, ok := l.Dequeue(3.5)
	if !ok || got != p {
		t.Fatal("packet not served at eligibility time")
	}
	// Deadline builds on E, not t: F = max(3.5, K0=1) + 1 = 4.5.
	if math.Abs(p.Deadline-4.5) > 1e-12 {
		t.Errorf("deadline = %v, want 4.5", p.Deadline)
	}
}

// TestHoldComputation checks eq. (9): A = F + LMAX/C - Fhat + dmax - d.
func TestHoldComputation(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100, JitterControl: true,
		D: func(ln float64) float64 { return ln / 100 }, DMax: 1})
	p := mkpkt(1, 1, 100)
	l.Enqueue(p, 0) // F = 1, d = 1, dmax = 1
	got, _ := l.Dequeue(0)
	finish := 0.4
	l.OnTransmit(got, finish)
	want := 1.0 + 100.0/1000 - 0.4 + 1 - 1 // 0.7
	if math.Abs(p.Hold-want) > 1e-12 {
		t.Errorf("Hold = %v, want %v", p.Hold, want)
	}
}

func TestHoldZeroWithoutJitterControl(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100})
	p := mkpkt(1, 1, 100)
	p.Hold = 99 // stale value must be cleared
	l.Enqueue(p, 0)
	got, _ := l.Dequeue(0)
	l.OnTransmit(got, 0.5)
	if p.Hold != 0 {
		t.Errorf("Hold = %v, want 0 for session without jitter control", p.Hold)
	}
}

func TestLenCountsRegulatedAndReady(t *testing.T) {
	l := newTestLiT()
	l.AddSession(network.SessionPort{Session: 1, Rate: 100, JitterControl: true})
	p1 := mkpkt(1, 1, 100)
	p2 := mkpkt(1, 2, 100)
	p2.Hold = 10
	l.Enqueue(p1, 0)
	l.Enqueue(p2, 0)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestUnknownSessionPanics(t *testing.T) {
	l := newTestLiT()
	defer func() {
		if recover() == nil {
			t.Error("unregistered session did not panic")
		}
	}()
	l.Enqueue(mkpkt(42, 1, 100), 0)
}

// TestVirtualClockSpecialCase: with d = L/r and no jitter control, LiT
// deadlines must equal VirtualClock stamps (eq. 2 == eqs. 10-11) for
// arbitrary arrival sequences.
func TestVirtualClockSpecialCase(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		l := newTestLiT()
		l.AddSession(network.SessionPort{Session: 1, Rate: 500})
		// Manual eq. (2) recursion.
		fPrev := 0.0
		started := false
		clock := 0.0
		for i := int64(1); i <= 200; i++ {
			clock += r.Exp(0.2)
			length := 10 + math.Floor(r.Float64()*90)
			p := mkpkt(1, i, length)
			l.Enqueue(p, clock)
			if !started {
				fPrev = clock
				started = true
			}
			base := math.Max(clock, fPrev)
			want := base + length/500
			fPrev = want
			if math.Abs(p.Deadline-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDMaxTracksObservedMax: d_max is the declared DMax raised to the
// running maximum of observed d values, a running maximum that starts at
// 0 and ignores a NaN declaration.
func TestDMaxTracksObservedMax(t *testing.T) {
	for _, tc := range []struct {
		name string
		dMax float64
		d    func(float64) float64
		want []float64 // DelayMax after packets of 50 and then 100 bits
	}{
		{"none declared", 0, nil, []float64{0.5, 1}},
		{"declared above every d", 2, nil, []float64{2, 2}},
		{"declared between", 0.7, nil, []float64{0.7, 1}},
		{"NaN declared", math.NaN(), nil, []float64{0.5, 1}},
		{"negative declared, negative d", -2, func(float64) float64 { return -1 }, []float64{0, 0}},
	} {
		l := newTestLiT()
		l.AddSession(network.SessionPort{Session: 1, Rate: 100, D: tc.d, DMax: tc.dMax})
		for i, length := range []float64{50, 100} {
			p := mkpkt(1, int64(i+1), length)
			l.Enqueue(p, float64(10*i))
			if math.Float64bits(p.DelayMax) != math.Float64bits(tc.want[i]) {
				t.Errorf("%s: DelayMax after packet %d = %v, want %v", tc.name, i+1, p.DelayMax, tc.want[i])
			}
		}
	}
}

// TestSessionStateSize pins the bytes every LiT session costs at every
// hop of its route (a 16-slot id-table page is 16 of them).
func TestSessionStateSize(t *testing.T) {
	if got := unsafe.Sizeof(sessionState{}); got != 56 {
		t.Errorf("sessionState is %d B, want 56: a new field is a deliberate per-call cost at every hop; record it in DESIGN.md (\"What a call's set-up shares\")", got)
	}
}

// TestPacketSize pins the header every packet carries through every hop
// and every slot of the network's packet pool holds (a 64-packet slab is
// 64 of them).
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(packet.Packet{}); got != 88 {
		t.Errorf("packet.Packet is %d B, want 88: a new field is a deliberate cost on every packet in flight; record it in DESIGN.md (\"Slab packet pool and ownership\")", got)
	}
}

// TestSessionSize pins the one object a call without a source allocates
// (network.AddSession): what every session reads stays inline, and the
// emission state and the rarely set hooks sit behind pointers, so the
// struct fits Go's 128-byte size class.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(network.Session{}); got > 128 {
		t.Errorf("network.Session is %d B, want at most 128: a new inline field moves every call to the next size class; put it behind the emitter or hooks pointer, or record the cost in DESIGN.md (\"What a standing call keeps\")", got)
	}
}

// TestPortSize pins network.Port inside Go's 288-byte size class: the
// benchmark's metro-serial workload builds one Port per link every op,
// so a field that moves it to the next class costs that op 14 kB.
func TestPortSize(t *testing.T) {
	if got := unsafe.Sizeof(network.Port{}); got > 288 {
		t.Errorf("network.Port is %d B, want at most 288: a new field moves every port to the next size class; put it behind a pointer, or record the cost in DESIGN.md (\"What a call's set-up shares\")", got)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config did not panic")
		}
	}()
	New(Config{Capacity: 0, LMax: 100})
}

func TestAddSessionValidation(t *testing.T) {
	l := newTestLiT()
	defer func() {
		if recover() == nil {
			t.Error("nonpositive rate did not panic")
		}
	}()
	l.AddSession(network.SessionPort{Session: 1, Rate: 0})
}
