package network

import (
	"math/bits"
	"strings"
	"testing"

	"leaveintime/internal/event"
	"leaveintime/internal/packet"
	"leaveintime/internal/traffic"
)

// TestPoolBalanceAfterDrain: every packet taken from the pool must be
// released once the network has fully drained — delivery and the
// buffer-limit drop path both count as releases.
func TestPoolBalanceAfterDrain(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	net.SetPoolDebug(true)
	// The first link is 10x faster than the second, so back-to-back
	// packets pile up at b's limited buffer and overflow it.
	p1 := net.NewPort("a", 10000, 0.01, &echoDisc{})
	p2 := net.NewPort("b", 1000, 0.01, &echoDisc{})
	p2.LimitBuffer(1, 150)
	src := &traffic.Trace{
		Gaps:    []float64{0.5, 0, 0, 1, 0},
		Lengths: []float64{100, 100, 100, 100, 100},
	}
	s := net.AddSession(1, 100, false, []*Port{p1, p2},
		make([]SessionPort, 2), src)
	s.Start(0, 10)
	sim.RunAll()

	st := net.PoolStats()
	if st.Taken != s.Emitted {
		t.Errorf("pool taken %d, emitted %d", st.Taken, s.Emitted)
	}
	if st.Taken != st.Released || st.Live != 0 {
		t.Errorf("pool leak: taken %d released %d live %d", st.Taken, st.Released, st.Live)
	}
	if s.Delivered == 0 || s.Delivered == s.Emitted {
		t.Fatalf("want a mix of deliveries and drops, got %d/%d", s.Delivered, s.Emitted)
	}
}

// TestPoolLiveWhileQueued: packets still inside the network (queued,
// transmitting, or in flight) are counted live, and draining releases
// them.
func TestPoolLiveWhileQueued(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0.01, &echoDisc{})
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)
	s.InjectAt(0, 100)
	s.InjectAt(0, 100)
	s.InjectAt(0, 100)
	if live := net.PoolStats().Live; live != 3 {
		t.Errorf("live = %d before draining, want 3", live)
	}
	sim.RunAll()
	if st := net.PoolStats(); st.Live != 0 || st.Released != 3 {
		t.Errorf("after drain: %+v", st)
	}
}

// TestPoolRecyclesPackets: a drained packet's struct is reused by a
// later emission instead of allocating a new one, and recycled packets
// come back fully zeroed.
func TestPoolRecyclesPackets(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)

	var first *packet.Packet
	s.SetOnDeliver(func(p *packet.Packet, _ float64) {
		if first == nil {
			first = p
		} else if p != first {
			t.Error("second packet did not reuse the drained struct")
		} else if p.Hold != 0 || p.Hop != 0 || p.Eligible != 0 {
			t.Errorf("recycled packet not zeroed: %+v", *p)
		}
	})
	s.InjectAt(0, 100)
	sim.RunAll()
	s.InjectAt(sim.Now(), 100)
	sim.RunAll()
	if s.Delivered != 2 || first == nil {
		t.Fatalf("delivered %d", s.Delivered)
	}
}

// TestPoolDoubleReleasePanics: with debug tracking on, releasing the
// same packet twice must panic instead of corrupting the free list.
func TestPoolDoubleReleasePanics(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	net.SetPoolDebug(true)
	p1 := net.NewPort("a", 1000, 0, &echoDisc{})
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)

	var delivered *packet.Packet
	s.SetOnDeliver(func(p *packet.Packet, _ float64) { delivered = p })
	s.InjectAt(0, 100)
	sim.RunAll()
	if delivered == nil {
		t.Fatal("no delivery")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	net.pool.put(delivered) // second release of a delivered packet
}

// TestPoolDebugRejectsForeignPacket: debug mode also catches releases
// of packets the pool never issued.
func TestPoolDebugRejectsForeignPacket(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	net.SetPoolDebug(true)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign release did not panic")
		}
	}()
	net.pool.put(&packet.Packet{Session: 9, Seq: 1})
}

// TestFlightQReusesArray: a long busy period — the link lane never
// fully drains — must wrap around its ring instead of growing behind an
// ever-advancing head.
func TestFlightQReusesArray(t *testing.T) {
	var q flightRing
	pkts := [3]packet.Packet{}
	for i := 0; i < 10000; i++ {
		q.push(flight{pkt: &pkts[i%3]})
		if i >= 2 { // keep 3 entries live so the lane never drains
			if got := q.pop(); got.pkt != &pkts[(i-2)%3] {
				t.Fatalf("pop %d out of order", i)
			}
		}
	}
	if c := len(q.buf); c != 4 {
		t.Fatalf("ring grew to %d slots with only 3 live entries, want 4", c)
	}
}

// TestFlightFIFOOrder: several packets in flight on one link must land
// in departure order through the shared pre-bound delivery handler.
func TestFlightFIFOOrder(t *testing.T) {
	sim := event.New()
	net := New(sim, 1000)
	p1 := net.NewPort("a", 1000, 0.05, &echoDisc{}) // gamma >> L/C: 3 packets overlap in flight
	s := net.AddSession(1, 100, false, []*Port{p1}, make([]SessionPort, 1), nil)
	var seqs []int64
	s.SetOnDeliver(func(p *packet.Packet, _ float64) { seqs = append(seqs, p.Seq) })
	s.InjectAt(0, 10)
	s.InjectAt(0, 10)
	s.InjectAt(0, 10)
	sim.RunAll()
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("delivery order %v, want [1 2 3]", seqs)
	}
}

// TestPoolSlabs: k live packets take ⌈k/64⌉ slabs and one liveness word
// per slab, and across three slabs every packet's PoolIndex names its
// own struct and its liveness bit. Releasing them all and taking k
// again reuses the slabs.
func TestPoolSlabs(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 128, 129, 150} {
		pp := pktPool{debug: true}
		live := make([]*packet.Packet, k)
		for round := 0; round < 2; round++ {
			for i := range live {
				live[i] = pp.get()
			}
			if want := (k + 63) / 64; len(pp.slabs) != want || len(pp.live) != want {
				t.Fatalf("k=%d round %d: %d slabs and %d liveness words, want %d of each", k, round, len(pp.slabs), len(pp.live), want)
			}
			seen := map[int32]bool{}
			for _, p := range live {
				idx := p.PoolIndex
				if seen[idx] || pp.at(idx) != p || pp.live[idx>>6]&(1<<(uint(idx)&63)) == 0 {
					t.Fatalf("k=%d: packet at index %d: seen %v, named struct %v, live bit %v", k, idx, seen[idx], pp.at(idx) == p, pp.live[idx>>6]&(1<<(uint(idx)&63)) != 0)
				}
				seen[idx] = true
			}
			for _, p := range live {
				pp.put(p)
			}
			for i, w := range pp.live {
				if w != 0 {
					t.Fatalf("k=%d: liveness word %d is %#x with every packet released", k, i, w)
				}
			}
		}
	}
}

// FuzzPool plays take/release scripts in debug mode against a reference
// set of live packets. Each byte is one op: its top bit takes a packet,
// otherwise it releases the live packet its low bits pick, and every
// eighth release also releases a packet a second time, which must
// panic. After every op the counters, the liveness bits and the slab
// count must agree with the reference: no slot is live twice, a packet
// comes back zeroed, and the pool holds no more slabs than its peak
// needs.
func FuzzPool(f *testing.F) {
	three := make([]byte, 0, 300)
	for i := 0; i < 150; i++ {
		three = append(three, 0x80)
	}
	for i := 0; i < 150; i++ {
		three = append(three, byte(i*37%128))
	}
	f.Add(three)
	f.Add([]byte{0x80, 0x80, 0, 0x80, 7, 0x80, 0x80, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		pp := pktPool{debug: true}
		var live []*packet.Packet
		peak := 0
		for i, c := range script {
			if c&0x80 != 0 {
				p := pp.get()
				if *p != (packet.Packet{PoolIndex: p.PoolIndex}) {
					t.Fatalf("op %d: took a packet that is not zeroed: %+v", i, *p)
				}
				p.Seq = int64(i) + 1
				live = append(live, p)
				peak = max(peak, len(live))
			} else if len(live) > 0 {
				j := int(c) % len(live)
				p := live[j]
				if p.Seq == 0 {
					t.Fatalf("op %d: a live packet was zeroed while held", i)
				}
				live = append(live[:j], live[j+1:]...)
				pp.put(p)
				if c%8 == 7 {
					mustPanicRelease(t, &pp, p)
				}
			}
			if n := pp.taken - pp.released; n != int64(len(live)) {
				t.Fatalf("op %d: pool counts %d live, reference %d", i, n, len(live))
			}
			ones := 0
			for _, w := range pp.live {
				ones += bits.OnesCount64(w)
			}
			if ones != len(live) || len(pp.free)+len(live) != len(pp.slabs)*64 {
				t.Fatalf("op %d: %d liveness bits and %d free slots for %d live packets in %d slabs", i, ones, len(pp.free), len(live), len(pp.slabs))
			}
			for _, p := range live {
				if pp.at(p.PoolIndex) != p || pp.live[p.PoolIndex>>6]&(1<<(uint(p.PoolIndex)&63)) == 0 {
					t.Fatalf("op %d: live packet %d lost its slot or liveness bit", i, p.PoolIndex)
				}
			}
			if want := (peak + 63) / 64; len(pp.slabs) != want {
				t.Fatalf("op %d: %d slabs for a peak of %d live packets, want %d", i, len(pp.slabs), peak, want)
			}
		}
	})
}

func mustPanicRelease(t *testing.T, pp *pktPool, p *packet.Packet) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("second release of packet %d did not panic", p.PoolIndex)
		}
	}()
	pp.put(p)
}
