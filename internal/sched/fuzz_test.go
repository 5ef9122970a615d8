package sched

import (
	"math"
	"slices"
	"testing"

	"leaveintime/internal/admission"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// FuzzWFQConservation drives WFQ with an arbitrary interleaving of
// arrivals and service completions decoded from fuzz bytes: every
// enqueued packet must come out exactly once, per-session FIFO order
// must hold, and the GPS bookkeeping must never wedge.
func FuzzWFQConservation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWFQ(1000)
		rates := []float64{100, 300, 600}
		for s, rate := range rates {
			w.AddSession(network.SessionPort{Session: s + 1, Rate: rate})
		}
		now := 0.0
		sent, got := 0, 0
		seq := map[int]int64{}
		lastOut := map[int]int64{}
		for i := 0; i+1 < len(data); i += 2 {
			now += float64(data[i]) / 200
			if data[i+1]%4 != 0 || w.Len() == 0 {
				s := 1 + int(data[i+1])%3
				seq[s]++
				w.Enqueue(&packet.Packet{Session: s, Seq: seq[s],
					Length: 50 + float64(data[i+1])}, now)
				sent++
			} else {
				p, ok := w.Dequeue(now)
				if !ok {
					t.Fatal("dequeue failed with Len > 0")
				}
				got++
				if p.Seq <= lastOut[p.Session] {
					t.Fatalf("session %d FIFO violated: %d after %d",
						p.Session, p.Seq, lastOut[p.Session])
				}
				lastOut[p.Session] = p.Seq
			}
		}
		for {
			p, ok := w.Dequeue(now + 1e6)
			if !ok {
				break
			}
			got++
			if p.Seq <= lastOut[p.Session] {
				t.Fatal("FIFO violated in drain")
			}
			lastOut[p.Session] = p.Seq
		}
		if got != sent {
			t.Fatalf("conservation: %d in, %d out", sent, got)
		}
	})
}

// FuzzPromise asks every row for its promise to a drawn flow over a
// drawn route of ports: every bound is finite and non-negative, the
// jitter bound is at most the delay bound, a row that owes no delay
// bound owes nothing, and lit's promise is admission.Route.Commitments
// on the route its ports describe, to the bit.
func FuzzPromise(f *testing.F) {
	f.Add([]byte{4, 2, 3, 1, 31, 2, 9, 12, 1, 200, 7, 3, 2, 40, 5, 1, 90, 30})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return float64(b)
		}
		n := 1 + int(next())%6
		lMax := 100 + 10*next()
		fl := Flow{Session: 1, Rate: 1e3 * (1 + next()), LMax: lMax * (1 + math.Mod(next(), 4)) / 4}
		fl.LMin = fl.LMax * (1 + math.Mod(next(), 4)) / 4
		fl.B0 = fl.LMax * math.Mod(next(), 5)
		frame := 1e-3 * (1 + math.Mod(next(), 30))
		jitterControl, extra := math.Mod(next(), 2) == 1, 1e-4*math.Mod(next(), 20)
		route := make([]Hop, n)
		for i := range route {
			own := network.SessionPort{Session: 1, Rate: fl.Rate, JitterControl: jitterControl,
				LocalDelay: fl.LMax/fl.Rate + 1e-4*next(), XMin: fl.LMin / fl.Rate}
			if extra > 0 {
				own.D = func(l float64) float64 { return l/fl.Rate + extra }
				own.DMax = own.D(fl.LMax)
			}
			h := Hop{C: 1e5 * (1 + next()), Gamma: 1e-4 * math.Mod(next(), 50), Ports: []network.SessionPort{own}}
			for k := range int(next()) % 4 {
				h.Ports = append(h.Ports, network.SessionPort{Session: 2 + k, Rate: 1e3 * (1 + next()),
					LocalDelay: 1e-4 * (1 + next()), XMin: 1e-4 * (1 + next())})
			}
			route[i] = h
		}

		for _, row := range Table {
			p := promise(row, fl, route, lMax, frame)
			for _, v := range append([]float64{p.Bound, p.Jitter}, p.Buffer...) {
				if !(v >= 0) || math.IsInf(v, 0) {
					t.Fatalf("%s: %+v is not finite and non-negative", row.Name, p)
				}
			}
			if p.Jitter > p.Bound || p.Bound == 0 && (p.Jitter != 0 || p.Buffer != nil) {
				t.Fatalf("%s: jitter %g beside delay bound %g (%+v)", row.Name, p.Jitter, p.Bound, p)
			}
		}

		p := promise(Lookup("lit"), fl, route, lMax, frame)
		if p.Bound == 0 {
			return
		}
		r := admission.Route{LMax: lMax}
		for _, h := range route {
			d := fl.LMax / fl.Rate
			if own := h.Ports[0]; own.D != nil {
				d = own.DMax
				r.Alpha = max(own.D(fl.LMin)-fl.LMin/fl.Rate, own.D(fl.LMax)-fl.LMax/fl.Rate)
			}
			r.Hops = append(r.Hops, admission.Hop{C: h.C, Gamma: h.Gamma, DMax: d})
		}
		delay, jitter, buffer := r.Commitments(fl.Rate, fl.B0, fl.LMin, jitterControl)
		if p.Bound != delay || p.Jitter != jitter || !slices.Equal(p.Buffer, buffer) {
			t.Fatalf("lit %+v, Commitments reads %v %v %v", p, delay, jitter, buffer)
		}
	})
}
