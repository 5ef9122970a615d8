package network

import (
	"testing"

	"leaveintime/internal/packet"
)

// FuzzFlightRing plays a script of link-lane operations against the
// ring and a plain slice model. Each byte is one op: push, pop, nil-mark
// the entry at a position (the next byte, modulo the length), or
// nil-mark every entry of one session (the next byte, modulo 4) — the
// walks FailLink and PurgeSession make from the head. After every op
// the ring must hold the model's entries in order, in a power-of-two
// array no larger than the high-water length needs. The committed
// corpus holds a ring that wraps and then grows, and marks of the head.
func FuzzFlightRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		var r flightRing
		var model []flight
		pkts := make([]packet.Packet, len(script))
		hw := 0
		for i := 0; i < len(script); i++ {
			switch script[i] % 4 {
			case 0:
				pkts[i].Session = i % 4
				x := flight{pkt: &pkts[i], sched: float64(i), tie: uint64(i)}
				r.push(x)
				model = append(model, x)
				hw = max(hw, len(model))
			case 1:
				if len(model) == 0 {
					continue
				}
				if got := r.pop(); got != model[0] {
					t.Fatalf("op %d: popped %+v, want %+v", i, got, model[0])
				}
				model = model[1:]
			case 2:
				if len(model) == 0 || i+1 == len(script) {
					continue
				}
				i++
				k := int(script[i]) % len(model)
				r.at(k).pkt = nil
				model[k].pkt = nil
			case 3:
				if i+1 == len(script) {
					continue
				}
				i++
				s := int(script[i]) % 4
				for j := 0; j < r.n; j++ {
					if e := r.at(j); e.pkt != nil && e.pkt.Session == s {
						e.pkt = nil
					}
				}
				for j := range model {
					if model[j].pkt != nil && model[j].pkt.Session == s {
						model[j].pkt = nil
					}
				}
			}
			if r.n != len(model) {
				t.Fatalf("op %d: ring holds %d, model %d", i, r.n, len(model))
			}
			for j := range model {
				if *r.at(j) != model[j] {
					t.Fatalf("op %d: entry %d is %+v, want %+v", i, j, *r.at(j), model[j])
				}
			}
			if size := len(r.buf); size&(size-1) != 0 || (hw > 0 && (size < hw || size >= 2*hw)) {
				t.Fatalf("op %d: %d slots for a high water of %d", i, size, hw)
			}
		}
	})
}
