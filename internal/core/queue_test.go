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

func TestCalendarQueueExactWithinBins(t *testing.T) {
	// With keys exactly on distinct bins the calendar is exact.
	c := newCalendarQueue(1, 16)
	keys := []float64{7, 2, 9, 4, 0.5}
	for i, k := range keys {
		c.Push(pq.Entry{Key: k, Stamp: uint64(i)})
	}
	var got []float64
	for {
		e, ok := c.PopMin()
		if !ok {
			break
		}
		got = append(got, e.Key)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("pop order %v", got)
	}
}

func TestCalendarQueueOverflow(t *testing.T) {
	c := newCalendarQueue(1, 4)
	// Keys far beyond one rotation land in the overflow heap and must
	// still come out in order.
	for i, k := range []float64{0, 100, 3, 50, 1} {
		c.Push(pq.Entry{Key: k, Stamp: uint64(i)})
	}
	if c.Len() != 5 {
		t.Fatalf("len = %d", c.Len())
	}
	var got []float64
	for {
		e, ok := c.PopMin()
		if !ok {
			break
		}
		got = append(got, e.Key)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("pop order with overflow: %v", got)
	}
}

// TestCalendarQueueBoundedError: the emulation error of the calendar
// queue is bounded by the bin width — a popped key may precede a
// smaller key still queued by at most width.
func TestCalendarQueueBoundedError(t *testing.T) {
	const width = 0.5
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := newCalendarQueue(width, 64)
		type op struct{ push bool }
		live := map[uint64]float64{}
		stamp := uint64(0)
		clockKey := 0.0 // keys drift upward like deadlines do
		for i := 0; i < 500; i++ {
			if r.Float64() < 0.6 || c.Len() == 0 {
				clockKey += r.Float64() * 0.3
				k := clockKey + r.Float64()*3
				c.Push(pq.Entry{Key: k, Stamp: stamp})
				live[stamp] = k
				stamp++
			} else {
				e, ok := c.PopMin()
				if !ok {
					return false
				}
				// No live key may be smaller than the popped key by
				// more than one bin width.
				for _, k := range live {
					if k < e.Key-width-1e-9 && k != live[e.Stamp] {
						_ = k
					}
				}
				min := 1e18
				for s, k := range live {
					if s != e.Stamp && k < min {
						min = k
					}
				}
				delete(live, e.Stamp)
				if min < e.Key-width-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCalendarQueueDrainRefill exercises emptying and re-anchoring.
func TestCalendarQueueDrainRefill(t *testing.T) {
	c := newCalendarQueue(1, 8)
	c.Push(pq.Entry{Key: 3})
	if e, ok := c.PopMin(); !ok || e.Key != 3 {
		t.Fatal("first pop")
	}
	if _, ok := c.PopMin(); ok {
		t.Fatal("empty pop succeeded")
	}
	// Re-anchor far ahead.
	c.Push(pq.Entry{Key: 1000})
	c.Push(pq.Entry{Key: 999})
	if e, ok := c.PopMin(); !ok || e.Key != 999 {
		t.Fatalf("pop after re-anchor = %v, %v", e.Key, ok)
	}
}

func TestCalendarQueuePanicsOnBadArgs(t *testing.T) {
	for _, w := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %v did not panic", w)
				}
			}()
			newCalendarQueue(w, 8)
		}()
	}
}

func TestCalendarQueueRejectsBadKeys(t *testing.T) {
	c := newCalendarQueue(1e-3, 8)
	for _, key := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push(key=%v) did not panic", key)
				}
			}()
			c.Push(pq.Entry{Key: key})
		}()
	}
	// A large but in-range key is fine.
	c.Push(pq.Entry{Key: 1e12})
	if e, ok := c.PopMin(); !ok || e.Key != 1e12 {
		t.Fatal("in-range large key lost")
	}
}

// TestCalendarQueueResizeOrder forces ring growth and shrink and checks
// the pop order (day asc, insertion order within day) is unaffected.
func TestCalendarQueueResizeOrder(t *testing.T) {
	c := newCalendarQueue(1, 0)
	initial := len(c.head)
	r := rng.New(7)
	type pushed struct {
		day   int64
		stamp uint64
	}
	var want []pushed
	for i := 0; i < 10*initial; i++ { // well past the doubling threshold
		k := r.Float64() * 50
		c.Push(pq.Entry{Key: k, Stamp: uint64(i)})
		want = append(want, pushed{day: int64(k), stamp: uint64(i)})
	}
	if len(c.head) <= initial {
		t.Fatalf("ring did not grow: %d bins for %d entries", len(c.head), c.Len())
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].day < want[j].day })
	for i, w := range want {
		e, ok := c.PopMin()
		if !ok || e.Stamp != w.stamp {
			t.Fatalf("pop %d: got stamp %d ok=%v, want %d", i, e.Stamp, ok, w.stamp)
		}
	}
	if len(c.head) != minCalendarBins {
		t.Fatalf("ring did not shrink back to the floor: %d bins", len(c.head))
	}
}

// TestCalendarNodeRelease: freed arena nodes must not pin packets.
func TestCalendarNodeRelease(t *testing.T) {
	c := newCalendarQueue(1, 8)
	pk := &packet.Packet{Seq: 1}
	c.Push(pq.Entry{Key: 2, P: pk})
	if e, ok := c.PopMin(); !ok || e.P != pk {
		t.Fatal("pop")
	}
	for i := range c.nodes {
		if c.nodes[i].P == pk {
			t.Fatal("freed node still references its packet")
		}
	}
}

// TestCalendarMultiYearFIFO: a wrapped ring bin can hold entries of
// several years; service must take the current day's entries (in FIFO
// order) before any future year's, even when interleaved in one bin.
func TestCalendarMultiYearFIFO(t *testing.T) {
	c := newCalendarQueue(1, 16)
	// Days 3 and 19 share slot 3 in a 16-bin ring.
	c.Push(pq.Entry{Key: 19.2, Stamp: 0})
	c.Push(pq.Entry{Key: 3.1, Stamp: 1})
	c.Push(pq.Entry{Key: 3.6, Stamp: 2})
	for i, want := range []uint64{1, 2, 0} {
		if e, ok := c.PopMin(); !ok || e.Stamp != want {
			t.Fatalf("pop %d: stamp %d, want %d", i, e.Stamp, want)
		}
	}
}

// TestCalendarQueueResizeHysteresis: grow (count > 2*nb) and shrink
// (count < nb/8) thresholds are an 8x band apart, so an event density
// oscillating around either threshold must not thrash resizes.
func TestCalendarQueueResizeHysteresis(t *testing.T) {
	c := newCalendarQueue(1, 16)
	nb0 := len(c.head)
	var stamp uint64
	push := func(k float64) { stamp++; c.Push(pq.Entry{Key: k, Stamp: stamp}) }
	// Grow exactly once.
	for i := 0; i <= 2*nb0; i++ {
		push(float64(i))
	}
	grown := len(c.head)
	if grown != 2*nb0 {
		t.Fatalf("grew to %d bins, want %d", grown, 2*nb0)
	}
	// Oscillate +-3 entries around the grow threshold 200 times: the
	// ring must not resize again in either direction.
	for i := 0; i < 200; i++ {
		for j := 0; j < 3; j++ {
			if _, ok := c.PopMin(); !ok {
				t.Fatal("unexpected empty")
			}
		}
		for j := 0; j < 3; j++ {
			push(1000 + float64(i*3+j))
		}
		if len(c.head) != grown {
			t.Fatalf("resize thrash at oscillation %d: %d bins", i, len(c.head))
		}
	}
	// Drain just to the shrink threshold and oscillate there too.
	for c.Len() > grown/8 {
		if _, ok := c.PopMin(); !ok {
			t.Fatal("unexpected empty")
		}
	}
	mid := len(c.head) // may have shrunk while draining; re-anchor
	for i := 0; i < 200; i++ {
		push(5000 + float64(i))
		if _, ok := c.PopMin(); !ok {
			t.Fatal("unexpected empty")
		}
		if len(c.head) != mid {
			t.Fatalf("resize thrash near shrink threshold: %d bins", len(c.head))
		}
	}
}

// TestCalendarSameOrderAsHeap: when every key is a multiple of the bin
// width (so equal-day implies equal-key), the calendar's pop order —
// day ascending, FIFO within day — must be exactly the heap's
// (key, stamp) order. This is the statistical conformance property the
// goldens rely on: at the default width the two queue implementations
// are distinguishable only within a bin.
func TestCalendarSameOrderAsHeap(t *testing.T) {
	const width = 0.25
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := newCalendarQueue(width, 16)
		h := &pq.Heap{}
		var stamp uint64
		base := 0
		for i := 0; i < 800; i++ {
			if r.Float64() < 0.6 || c.Len() == 0 {
				base += int(r.Float64() * 3)
				k := float64(base+int(r.Float64()*40)) * width
				stamp++
				c.Push(pq.Entry{Key: k, Stamp: stamp})
				h.Push(pq.Entry{Key: k, Stamp: stamp})
			} else {
				ce, cok := c.PopMin()
				he, hok := h.PopMin()
				if cok != hok || ce.Key != he.Key || ce.Stamp != he.Stamp {
					return false
				}
			}
		}
		for {
			ce, cok := c.PopMin()
			he, hok := h.PopMin()
			if cok != hok {
				return false
			}
			if !cok {
				return true
			}
			if ce.Key != he.Key || ce.Stamp != he.Stamp {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
