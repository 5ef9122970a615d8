package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"leaveintime/internal/intern"
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
// hop of its route (a 16-slot id-table page is 16 of them), and that
// the state holds no pointer: its rate and d(L) are an entry of the
// port's declaration table, so the pages are not scanned by the GC and
// storing a state needs no write barrier.
func TestSessionStateSize(t *testing.T) {
	if got := unsafe.Sizeof(sessionState{}); got != 24 {
		t.Errorf("sessionState is %d B, want 24: a new field is a deliberate per-call cost at every hop; record it in DESIGN.md (\"What a call's set-up shares\")", got)
	}
	if path := pointerField(reflect.TypeOf(sessionState{})); path != "" {
		t.Errorf("sessionState holds a pointer-shaped field (%s): keep pointers in the port's declaration table", path)
	}
}

// pointerField returns the path to the first field of t that is or
// holds a pointer (pointer, func, slice, map, interface, string, chan,
// unsafe pointer), or "" when t holds none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.Func, reflect.Slice, reflect.Map, reflect.Interface,
		reflect.String, reflect.Chan, reflect.UnsafePointer:
		return t.String()
	case reflect.Array:
		if t.Len() > 0 {
			if p := pointerField(t.Elem()); p != "" {
				return "[]" + p
			}
		}
	case reflect.Struct:
		for i := range t.NumField() {
			if p := pointerField(t.Field(i).Type); p != "" {
				return t.Field(i).Name + " " + p
			}
		}
	}
	return ""
}

func TestPointerField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{sessionState{}, ""},
		{struct{ a, b float64 }{}, ""},
		{struct{ f func(float64) float64 }{}, "f func(float64) float64"},
		{struct {
			a int
			s struct{ p *int }
		}{}, "s p *int"},
		{struct{ a [2]string }{}, "a []string"},
		{struct{ m map[int]int }{}, "m map[int]int"},
		{struct{ x any }{}, "x interface {}"},
		{struct{ b []byte }{}, "b []uint8"},
	} {
		if got := pointerField(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("pointerField(%T) = %q, want %q", c.v, got, c.want)
		}
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
// (network.AddSession): what every session reads stays inline, the
// emission state and the rarely set hooks (a shard segment's hop offset
// among them) sit behind pointers, and the network is the first port's,
// so the struct fits Go's 112-byte size class.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(network.Session{}); got > 112 {
		t.Errorf("network.Session is %d B, want at most 112: a new inline field moves every call to the 128-byte size class; put it behind the emitter or hooks pointer, or record the cost in DESIGN.md (\"What a standing call keeps\")", got)
	}
}

// TestDeclarationEntrySize pins a port's interned declaration entry:
// the key (closure address, rate bits), the closure and its length memo,
// and the table's links. The rate is read from the key, not kept twice.
func TestDeclarationEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(intern.Entry[declKey, decl]{}); got != 56 {
		t.Errorf("a declaration entry is %d B, want 56: a new field is a per-port cost for every declaration; record it in DESIGN.md (\"What a call's set-up shares\")", got)
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

// liveEntries counts the entries some session of l holds, after
// checking the table's links.
func liveEntries(t *testing.T, l *LiT) int {
	t.Helper()
	live, _, _, err := l.decls.Census()
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// TestDeclarationTable checks the port's table of interned (rate, d)
// entries: sharing, separation, release, and a footprint that follows
// the live entries under churn where every call brings a fresh closure.
func TestDeclarationTable(t *testing.T) {
	entryOf := func(l *LiT, id int) *intern.Entry[declKey, decl] { return l.decls.At(l.sessions.Get(id).decl) }
	// Every other call brings a fresh closure; the rest share the
	// closure of a random live session.
	for _, window := range []int{8, 40} {
		t.Run(fmt.Sprintf("churn of fresh closures, %d live", window), func(t *testing.T) {
			const cycles = 10000
			l := newTestLiT()
			r := rng.New(1)
			closure := map[int]int{}              // session -> closure number
			ds := map[int]func(float64) float64{} // closure number -> d
			holders := map[int]int{}              // closure number -> live sessions
			var live []int
			peak := 0 // the most live entries so far
			for i := 1; i <= cycles; i++ {
				if len(live) == window {
					k := r.Intn(len(live))
					if i%2 == 0 {
						l.RemoveSession(live[k])
					} else {
						l.PurgeSession(live[k], func(*packet.Packet) {})
					}
					if c := closure[live[k]]; holders[c] == 1 {
						delete(holders, c)
						delete(ds, c)
					} else {
						holders[c]--
					}
					live = append(live[:k], live[k+1:]...)
				}
				c := i
				if i%2 == 0 && len(live) > 0 {
					c = closure[live[r.Intn(len(live))]]
				} else {
					ds[c] = func(length float64) float64 { return length/100 + float64(c) }
				}
				l.AddSession(network.SessionPort{Session: i, Rate: 100, D: ds[c]})
				closure[i], holders[c] = c, holders[c]+1
				live = append(live, i)
				held, made, buckets, err := l.decls.Census()
				if err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
				if held != len(holders) {
					t.Fatalf("cycle %d: %d live entries for %d live closures", i, held, len(holders))
				}
				peak = max(peak, held)
				if made != peak || buckets > max(2*peak, 4) {
					t.Fatalf("cycle %d: %d entries and %d buckets, %d live entries at the peak: the table grew past its peak",
						i, made, buckets, peak)
				}
				for _, id := range live {
					p := mkpkt(id, int64(i), 50)
					l.Enqueue(p, float64(i))
					if want := ds[closure[id]](50); p.Delay != want {
						t.Fatalf("cycle %d: session %d got d = %v, want %v", i, id, p.Delay, want)
					}
				}
				for _, ok := l.Dequeue(float64(i)); ok; _, ok = l.Dequeue(float64(i)) {
				}
			}
			if peak > window {
				t.Errorf("%d live entries at the peak for at most %d live sessions", peak, window)
			}
		})
	}
	t.Run("one closure and rate share an entry", func(t *testing.T) {
		l := newTestLiT()
		d := func(length float64) float64 { return length / 50 }
		for id := 1; id <= 3; id++ {
			l.AddSession(network.SessionPort{Session: id, Rate: 100, D: d})
		}
		l.AddSession(network.SessionPort{Session: 4, Rate: 100})
		l.AddSession(network.SessionPort{Session: 5, Rate: 100})
		if liveEntries(t, l) != 2 || entryOf(l, 1) != entryOf(l, 3) || entryOf(l, 4) != entryOf(l, 5) {
			t.Errorf("%d live entries, want 2: one for d, one for L/r, each shared", liveEntries(t, l))
		}
		l.RemoveSession(1)
		l.RemoveSession(2)
		if liveEntries(t, l) != 2 {
			t.Errorf("d's entry went with two of its three holders: %d live entries, want 2", liveEntries(t, l))
		}
		l.RemoveSession(3)
		if liveEntries(t, l) != 1 {
			t.Errorf("d's entry outlived its three holders: %d live entries, want 1", liveEntries(t, l))
		}
	})
	t.Run("another rate gets its own entry", func(t *testing.T) {
		l := newTestLiT()
		d := func(length float64) float64 { return length / 50 }
		l.AddSession(network.SessionPort{Session: 1, Rate: 100, D: d})
		l.AddSession(network.SessionPort{Session: 2, Rate: 200, D: d})
		if liveEntries(t, l) != 2 || entryOf(l, 1) == entryOf(l, 2) {
			t.Fatalf("%d live entries for one closure at two rates, want 2", liveEntries(t, l))
		}
		var p *packet.Packet
		for seq := int64(1); seq <= 3; seq++ {
			p = mkpkt(2, seq, 100)
			l.Enqueue(p, 0)
		}
		if p.Deadline != 1+2 { // K advances by L/r = 0.5 a packet, not 1
			t.Errorf("third packet at rate 200: deadline %v, want 3", p.Deadline)
		}
	})
	t.Run("a Put over a live id and a purge release", func(t *testing.T) {
		l := newTestLiT()
		d1 := func(length float64) float64 { return length / 50 }
		d2 := func(length float64) float64 { return length / 25 }
		l.AddSession(network.SessionPort{Session: 1, Rate: 100, D: d1})
		old := l.sessions.Get(1).decl
		l.AddSession(network.SessionPort{Session: 1, Rate: 100, D: d2})
		if liveEntries(t, l) != 1 || l.decls.At(old).Val.d != nil {
			t.Errorf("after a Put over id 1: %d live entries, the old one still held; want 1", liveEntries(t, l))
		}
		l.AddSession(network.SessionPort{Session: 1, Rate: 100, D: d2}) // the same declaration again
		if liveEntries(t, l) != 1 {
			t.Errorf("after a Put of the same declaration: %d live entries; want 1", liveEntries(t, l))
		}
		l.PurgeSession(1, func(*packet.Packet) {})
		if liveEntries(t, l) != 0 {
			t.Errorf("after PurgeSession of the only session: %d live entries, want 0", liveEntries(t, l))
		}
	})
	t.Run("a released entry drops its d", func(t *testing.T) {
		l := newTestLiT()
		for id := 1; id <= 3; id++ {
			c := float64(id)
			l.AddSession(network.SessionPort{Session: id, Rate: 100, D: func(float64) float64 { return c }})
		}
		i := l.sessions.Get(2).decl
		l.RemoveSession(2)
		if l.HasSession(2) || !l.HasSession(1) || !l.HasSession(3) {
			t.Error("RemoveSession(2) changed which sessions the port has")
		}
		if liveEntries(t, l) != 2 || l.decls.At(i).Val.d != nil {
			t.Errorf("%d live entries after one release; a released entry must drop its d, which keeps the closure alive", liveEntries(t, l))
		}
		// A freed entry of d = L/r is off its chain, so the next fresh
		// declaration does not take the entry from under it.
		l.AddSession(network.SessionPort{Session: 4, Rate: 100})
		l.RemoveSession(4)
		l.AddSession(network.SessionPort{Session: 5, Rate: 100})
		l.AddSession(network.SessionPort{Session: 6, Rate: 100, D: func(float64) float64 { return 6 }})
		if liveEntries(t, l) != 4 || entryOf(l, 5) == entryOf(l, 6) {
			t.Errorf("an L/r session after a freed L/r entry, then a fresh closure: %d live entries, want 4, each session its own", liveEntries(t, l))
		}
	})
}
