package core

import (
	"math"
	"testing"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
)

// FuzzCalendarQueueOrdering drives the exact heap and the calendar
// queue with the same operation stream decoded from fuzz bytes, and
// checks the calendar's emulation-error bound: a popped key may
// precede a smaller queued key by at most one bin width.
func FuzzCalendarQueueOrdering(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 9, 0, 0, 255, 17})
	f.Add([]byte{0})
	f.Add([]byte{255, 254, 253, 252, 10, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		const width = 0.25
		cq := newCalendarQueue(width, 8)
		live := map[uint64]float64{}
		var stamp uint64
		base := 0.0
		for i := 0; i+1 < len(data); i += 2 {
			op, val := data[i], data[i+1]
			if op%3 != 0 || cq.Len() == 0 {
				// Push: keys drift upward with bounded jitter like
				// deadlines do.
				base += float64(op%7) * 0.05
				k := base + float64(val)/64
				cq.Push(pq.Entry{Key: k, Stamp: stamp})
				live[stamp] = k
				stamp++
				continue
			}
			e, ok := cq.PopMin()
			if !ok {
				t.Fatal("popMin failed with nonzero len")
			}
			if _, known := live[e.Stamp]; !known {
				t.Fatal("popped unknown entry")
			}
			delete(live, e.Stamp)
			for _, k := range live {
				if k < e.Key-width-1e-9 {
					t.Fatalf("emulation error exceeded: popped %v with %v still queued", e.Key, k)
				}
			}
		}
		if cq.Len() != len(live) {
			t.Fatalf("len = %d, want %d", cq.Len(), len(live))
		}
		// Drain fully; everything must come out.
		for range live {
			if _, ok := cq.PopMin(); !ok {
				t.Fatal("drain failed")
			}
		}
		if _, ok := cq.PopMin(); ok {
			t.Fatal("empty queue popped")
		}
	})
}

// FuzzLiTDeadlineMonotonicity: with a fixed per-packet d, a session's
// transmission deadlines must be strictly increasing no matter how
// arrivals and holds interleave (F_i - F_{i-1} >= L_{i-1}/r > 0).
func FuzzLiTDeadlineMonotonicity(f *testing.F) {
	f.Add([]byte{10, 20, 30, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New(Config{Capacity: 1000, LMax: 256})
		l.AddSession(network.SessionPort{
			Session: 1, Rate: 100, JitterControl: true,
			D:    func(float64) float64 { return 0.5 },
			DMax: 0.5,
		})
		now := 0.0
		prevF := math.Inf(-1)
		var seq int64
		for i := 0; i+1 < len(data); i += 2 {
			now += float64(data[i]) / 100
			seq++
			p := &packet.Packet{
				Session: 1,
				Seq:     seq,
				Length:  1 + float64(data[i+1]),
				Hold:    float64(data[i]%16) / 10,
			}
			l.Enqueue(p, now)
			if p.Deadline <= prevF {
				t.Fatalf("deadline regressed: %v after %v", p.Deadline, prevF)
			}
			if p.Eligible < now {
				t.Fatalf("eligibility %v before arrival %v", p.Eligible, now)
			}
			prevF = p.Deadline
		}
		// Everything enqueued must drain in deadline order.
		last := math.Inf(-1)
		for {
			p, ok := l.Dequeue(now + 1e9)
			if !ok {
				break
			}
			if p.Deadline < last {
				t.Fatalf("service order violated: %v after %v", p.Deadline, last)
			}
			last = p.Deadline
		}
		if l.Len() != 0 {
			t.Fatalf("Len = %d after drain", l.Len())
		}
	})
}
