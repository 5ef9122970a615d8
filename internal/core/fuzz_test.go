package core

import (
	"math"
	"testing"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// FuzzCalendarQueueOrdering drives a server on the approximate
// transmission queue with an operation stream decoded from fuzz bytes
// and checks the emulation-error bound: a popped deadline may precede a
// smaller queued one by at most one day width.
func FuzzCalendarQueueOrdering(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 9, 0, 0, 255, 17})
	f.Add([]byte{0})
	f.Add([]byte{255, 254, 253, 252, 10, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		const width = 0.25
		l := approxServer(width)
		live := map[int64]float64{}
		var seq int64
		base := 0.0
		for i := 0; i+1 < len(data); i += 2 {
			op, val := data[i], data[i+1]
			if op%3 != 0 || l.Len() == 0 {
				// Push: keys drift upward with bounded jitter like
				// deadlines do.
				base += float64(op%7) * 0.05
				k := base + float64(val)/64
				pushKey(l, k, seq)
				live[seq] = k
				seq++
				continue
			}
			p, ok := l.Dequeue(0)
			if !ok {
				t.Fatal("Dequeue failed with nonzero Len")
			}
			if _, known := live[p.Seq]; !known {
				t.Fatal("popped unknown packet")
			}
			delete(live, p.Seq)
			if k := minKey(live); k < p.Deadline-width-1e-9 {
				t.Fatalf("emulation error exceeded: popped %v with %v still queued", p.Deadline, k)
			}
		}
		if l.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(live))
		}
		// Drain fully; everything must come out.
		for range live {
			if _, ok := l.Dequeue(0); !ok {
				t.Fatal("drain failed")
			}
		}
		if _, ok := l.Dequeue(0); ok {
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
