package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
	"leaveintime/internal/rng"
)

// The TestCalendar* tests below and FuzzCalendarQueueOrdering check the
// approximate transmission queue through a core.New server. They were
// written against the ring-of-bins calendar queue that produced the same
// service order before PR 17 and keep its name, so the suite's test ids
// (and the fuzz corpus directory) did not move.

func TestBinHeapOrdering(t *testing.T) {
	h := &pq.Heap{}
	keys := []float64{5, 1, 3, 3, 2}
	for i, k := range keys {
		h.Push(pq.Entry{Key: k, Stamp: uint64(i)})
	}
	if h.Len() != 5 {
		t.Fatalf("len = %d", h.Len())
	}
	var got []float64
	for {
		e, ok := h.PopMin()
		if !ok {
			break
		}
		got = append(got, e.Key)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("pop order %v", got)
	}
}

func TestBinHeapTieStability(t *testing.T) {
	h := &pq.Heap{}
	for i := 0; i < 10; i++ {
		h.Push(pq.Entry{Key: 1, Stamp: uint64(i)})
	}
	for i := 0; i < 10; i++ {
		e, _ := h.PopMin()
		if e.Stamp != uint64(i) {
			t.Fatalf("tie order broken: stamp %d at position %d", e.Stamp, i)
		}
	}
}

// approxServer returns a Leave-in-Time server on the approximate
// transmission queue whose day width, L_MAX/C, is exactly width.
func approxServer(width float64) *LiT {
	return New(Config{Capacity: 1, LMax: width, Approximate: true})
}

// pushKey files an already eligible packet with the given deadline in
// the server's transmission queue, past the deadline recurrence, so a
// test chooses the keys; Seq identifies the packet when it pops.
func pushKey(l *LiT, key float64, seq int64) {
	l.place(&packet.Packet{Seq: seq, Deadline: key}, 0, 0)
}

// checkServedSorted pushes keys that fall on distinct days of width 1
// and requires them back in increasing order: there the approximate
// queue is exact.
func checkServedSorted(t *testing.T, keys []float64) {
	t.Helper()
	l := approxServer(1)
	for i, k := range keys {
		pushKey(l, k, int64(i))
	}
	if l.Len() != len(keys) {
		t.Fatalf("Len = %d after %d pushes", l.Len(), len(keys))
	}
	var got []float64
	for {
		p, ok := l.Dequeue(0)
		if !ok {
			break
		}
		got = append(got, p.Deadline)
	}
	if len(got) != len(keys) || !sort.Float64sAreSorted(got) {
		t.Fatalf("pushed %v, served %v", keys, got)
	}
}

func TestCalendarQueueExactWithinBins(t *testing.T) {
	checkServedSorted(t, []float64{7, 2, 9, 4, 0.5})
}

// TestCalendarQueueOverflow: days far beyond any window a bounded
// structure would cover still come out in order.
func TestCalendarQueueOverflow(t *testing.T) {
	checkServedSorted(t, []float64{0, 100, 3, 50, 1})
}

// TestCalendarMultiYearFIFO: the current day is served before a far
// later one pushed ahead of it, and within a day service is in push
// order whatever the deadlines.
func TestCalendarMultiYearFIFO(t *testing.T) {
	l := approxServer(1)
	pushKey(l, 19.2, 0)
	pushKey(l, 3.6, 1)
	pushKey(l, 3.1, 2)
	for i, want := range []int64{1, 2, 0} {
		if p, ok := l.Dequeue(0); !ok || p.Seq != want {
			t.Fatalf("pop %d: packet %d, want %d", i, p.Seq, want)
		}
	}
}

// minKey returns the smallest deadline still queued.
func minKey(live map[int64]float64) float64 {
	min := math.Inf(1)
	for _, k := range live {
		if k < min {
			min = k
		}
	}
	return min
}

// TestCalendarQueueBoundedError: the emulation error of the approximate
// queue is bounded by the day width — a popped deadline may precede a
// smaller one still queued by at most width.
func TestCalendarQueueBoundedError(t *testing.T) {
	const width = 0.5
	f := func(seed uint64) bool {
		r := rng.New(seed)
		l := approxServer(width)
		live := map[int64]float64{}
		var seq int64
		clockKey := 0.0 // keys drift upward like deadlines do
		for i := 0; i < 500; i++ {
			if r.Float64() < 0.6 || l.Len() == 0 {
				clockKey += r.Float64() * 0.3
				k := clockKey + r.Float64()*3
				pushKey(l, k, seq)
				live[seq] = k
				seq++
				continue
			}
			p, ok := l.Dequeue(0)
			if !ok {
				return false
			}
			delete(live, p.Seq)
			if minKey(live) < p.Deadline-width-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCalendarQueueDrainRefill exercises emptying and refilling far
// ahead of everything served so far.
func TestCalendarQueueDrainRefill(t *testing.T) {
	l := approxServer(1)
	pushKey(l, 3, 0)
	if p, ok := l.Dequeue(0); !ok || p.Deadline != 3 {
		t.Fatal("first pop")
	}
	if _, ok := l.Dequeue(0); ok {
		t.Fatal("empty pop succeeded")
	}
	pushKey(l, 1000, 1)
	pushKey(l, 999, 2)
	if p, ok := l.Dequeue(0); !ok || p.Deadline != 999 {
		t.Fatalf("pop after refill = %v, %v", p.Deadline, ok)
	}
}

func TestCalendarQueueRejectsBadKeys(t *testing.T) {
	l := approxServer(1e-3)
	for _, key := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("deadline %v did not panic", key)
				}
			}()
			pushKey(l, key, 0)
		}()
	}
	// A large but in-range deadline is fine.
	pushKey(l, 1e12, 1)
	if p, ok := l.Dequeue(0); !ok || p.Deadline != 1e12 {
		t.Fatal("in-range large deadline lost")
	}
}

// TestCalendarSameOrderAsHeap: when every deadline is a multiple of the
// day width (so equal day implies equal deadline), the approximate
// queue's service order — day ascending, push order within a day — is
// exactly the exact queue's (deadline, arrival) order: the two modes
// are distinguishable only within a day.
func TestCalendarSameOrderAsHeap(t *testing.T) {
	const width = 0.25
	f := func(seed uint64) bool {
		r := rng.New(seed)
		approx := approxServer(width)
		exact := New(Config{Capacity: 1, LMax: width})
		var seq int64
		base := 0
		same := func() (more, ok bool) {
			a, aok := approx.Dequeue(0)
			e, eok := exact.Dequeue(0)
			if aok != eok {
				return false, false
			}
			return aok, !aok || a.Seq == e.Seq
		}
		for i := 0; i < 800; i++ {
			if r.Float64() < 0.6 || approx.Len() == 0 {
				base += int(r.Float64() * 3)
				k := float64(base+int(r.Float64()*40)) * width
				seq++
				pushKey(approx, k, seq)
				pushKey(exact, k, seq)
			} else if _, ok := same(); !ok {
				return false
			}
		}
		for {
			more, ok := same()
			if !ok || !more {
				return ok
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestApproximateOrderOracle drives queues with random scripts of
// direct pushes, regulated pushes, clock advances, pops and session
// purges, and checks every pop against the definition of the
// approximate order: a stable sort by floor(F/width) over the order in
// which packets entered the transmission queue — directly on arrival,
// or on release from the regulator in (eligibility, arrival) order.
func TestApproximateOrderOracle(t *testing.T) {
	const width = 0.25
	type item struct {
		p        *packet.Packet
		eligible float64
	}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		q := newQueues(1, width)
		q.binned = true
		var held, ready []item // model: regulator in arrival order, queue in push order
		now := 0.0
		var seq int64
		// release moves due packets from held to ready, earliest
		// eligibility first, arrival order among equals.
		release := func() {
			var due, rest []item
			for _, it := range held {
				if it.eligible <= now {
					due = append(due, it)
				} else {
					rest = append(rest, it)
				}
			}
			sort.SliceStable(due, func(i, j int) bool { return due[i].eligible < due[j].eligible })
			ready = append(ready, due...)
			held = rest
		}
		dropFrom := func(items []item, id int) []item {
			out := items[:0]
			for _, it := range items {
				if it.p.Session != id {
					out = append(out, it)
				}
			}
			return out
		}
		for step := 0; step < 600; step++ {
			switch u := r.Float64(); {
			case u < 0.5:
				seq++
				p := &packet.Packet{Session: int(r.Float64() * 4), Seq: seq,
					Deadline: now + r.Float64()*3}
				e := now
				if r.Float64() < 0.4 {
					e += float64(int(r.Float64()*4)) * 0.1 // coarse, so eligibility ties occur
				}
				q.place(p, e, now)
				if e > now {
					held = append(held, item{p, e})
				} else {
					ready = append(ready, item{p, e})
				}
			case u < 0.6:
				now += r.Float64() * 0.3
			case u < 0.65:
				id := int(r.Float64() * 4)
				want := map[*packet.Packet]bool{}
				for _, it := range append(append([]item(nil), held...), ready...) {
					if it.p.Session == id {
						want[it.p] = true
					}
				}
				q.purge(id, func(p *packet.Packet) {
					if !want[p] {
						t.Fatalf("seed %d: purge dropped packet %d of session %d", seed, p.Seq, p.Session)
					}
					delete(want, p)
				})
				if len(want) != 0 {
					t.Fatalf("seed %d: purge left %d packets of session %d queued", seed, len(want), id)
				}
				held, ready = dropFrom(held, id), dropFrom(ready, id)
			default:
				release()
				got, ok := q.Dequeue(now)
				if len(ready) == 0 {
					if ok {
						t.Fatalf("seed %d: popped packet %d from an empty queue", seed, got.Seq)
					}
					continue
				}
				best := 0
				for i, it := range ready {
					if math.Floor(it.p.Deadline/width) < math.Floor(ready[best].p.Deadline/width) {
						best = i
					}
				}
				if !ok || got != ready[best].p {
					t.Fatalf("seed %d step %d: popped %v, want packet %d", seed, step, got, ready[best].p.Seq)
				}
				ready = append(ready[:best], ready[best+1:]...)
			}
			if q.Len() != len(held)+len(ready) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, q.Len(), len(held)+len(ready))
			}
		}
	}
}
