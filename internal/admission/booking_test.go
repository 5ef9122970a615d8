package admission

import (
	"fmt"
	"testing"

	"leaveintime/internal/rng"
)

// TestBookingTable checks a controller's interned bookings under churn:
// sessions that share a (class, rate, L_MAX) declaration share an entry,
// one live entry per live declaration, a refusal (a rule's or a
// duplicate id's, alone or in a batch) leaves no entry behind and no
// count on a shared one, and neither slice of the table grows past the
// peak number of entries live.
func TestBookingTable(t *testing.T) {
	const c = 155.52e6
	classes := []Class{{RFrac: 0.3, Sigma: 1}, {RFrac: 0.6, Sigma: 1}, {RFrac: 1, Sigma: 1}}
	for _, window := range []int{8, 40} {
		t.Run(fmt.Sprintf("%d live", window), func(t *testing.T) {
			const cycles = 10000
			r := rng.New(uint64(window))
			ctl, err := newClassController(2, c, classes)
			if err != nil {
				t.Fatal(err)
			}
			type decl struct {
				class      int
				rate, lMax float64
			}
			keyOf := func(d decl) booking { return bookingOf(d.class, d.rate, d.lMax/c) }
			held := map[int]decl{} // live id -> its declaration
			var live []int
			// fresh draws one of 3 x 5 x 3 declarations, at most 40 x 0.5 %
			// of the link in any class; shared repeats a live session's.
			fresh := func() decl {
				return decl{1 + r.Intn(3), c * float64(1+r.Intn(5)) / 1000, []float64{424, 1000, 12000}[r.Intn(3)]}
			}
			shared := func() decl {
				if len(live) == 0 || r.Intn(2) == 0 {
					return fresh()
				}
				return held[live[r.Intn(len(live))]]
			}
			spec := func(id int, d decl) SessionSpec {
				return SessionSpec{ID: id, Rate: d.rate, LMax: d.lMax, LMin: d.lMax / 2}
			}
			distinct := func(extra ...decl) int {
				keys := map[booking]bool{}
				for _, d := range held {
					keys[keyOf(d)] = true
				}
				for _, d := range extra {
					keys[keyOf(d)] = true
				}
				return len(keys)
			}
			peak := 0 // the most entries live so far, counting a refusal's passing ones
			check := func(where string) {
				t.Helper()
				got, made, buckets, err := ctl.books.Census()
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if want := distinct(); got != want {
					t.Fatalf("%s: %d live entries for %d live declarations", where, got, want)
				}
				peak = max(peak, got)
				if made > peak || buckets > max(2*peak, 4) {
					t.Fatalf("%s: %d entries and %d buckets, %d live entries at the peak: the table grew past its peak", where, made, buckets, peak)
				}
				if ctl.live.Len() != len(held) {
					t.Fatalf("%s: %d ids booked, %d live", where, ctl.live.Len(), len(held))
				}
				for id, d := range held {
					if b, ok := ctl.booked(id); !ok || b != keyOf(d) {
						t.Fatalf("%s: id %d booked %+v, want %+v", where, id, b, keyOf(d))
					}
				}
			}
			admitted := func(ids []int, ds []decl) {
				for k, id := range ids {
					held[id] = ds[k]
					live = append(live, id)
				}
			}
			next := 0
			for i := 1; i <= cycles; i++ {
				where := fmt.Sprintf("cycle %d", i)
				for len(live) > window-3 {
					k := r.Intn(len(live))
					if !ctl.Remove(live[k]) {
						t.Fatalf("%s: Remove(%d) of a live id reported false", where, live[k])
					}
					delete(held, live[k])
					live = append(live[:k], live[k+1:]...)
				}
				if ctl.Remove(next + 1 + r.Intn(4)) {
					t.Fatalf("%s: Remove of an id never admitted reported true", where)
				}
				switch i % 4 {
				case 0: // one call
					next++
					d := shared()
					if _, err := ctl.Admit(spec(next, d), d.class, Options{}); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					admitted([]int{next}, []decl{d})
				case 1: // a batch of one class
					n, class := 1+r.Intn(3), 1+r.Intn(3)
					batch, ds, ids := make([]SessionSpec, n), make([]decl, n), make([]int, n)
					for k := range batch {
						next++
						ds[k] = shared()
						ds[k].class = class
						batch[k], ids[k] = spec(next, ds[k]), next
					}
					if _, ok := ctl.AdmitClass(nil, batch, class, Options{}); !ok {
						t.Fatalf("%s: batch of %d refused", where, n)
					}
					admitted(ids, ds)
				case 2: // a rule refuses: a call or a batch holding a call at the link's rate
					d := shared()
					big := decl{d.class, c, 424}
					var ok bool
					if r.Intn(2) == 0 {
						peak = max(peak, distinct(big))
						_, err := ctl.Admit(spec(next+1, big), big.class, Options{})
						ok = err == nil
					} else {
						peak = max(peak, distinct(d, big))
						_, ok = ctl.AdmitClass(nil, []SessionSpec{spec(next+1, d), spec(next+2, big)}, d.class, Options{})
					}
					if ok {
						t.Fatalf("%s: a call at the link's rate admitted", where)
					}
				case 3: // a live id again, alone or behind a new one
					if len(live) == 0 {
						continue
					}
					dup := live[r.Intn(len(live))]
					d := shared()
					peak = max(peak, distinct(d))
					var ok bool
					if r.Intn(2) == 0 {
						_, err := ctl.Admit(spec(dup, d), d.class, Options{})
						ok = err == nil
					} else {
						_, ok = ctl.AdmitClass(nil, []SessionSpec{spec(next+1, d), spec(dup, d)}, d.class, Options{})
					}
					if ok {
						t.Fatalf("%s: live id %d admitted again", where, dup)
					}
				}
				check(where)
			}
			if peak > window {
				t.Errorf("%d live entries at the peak for at most %d live sessions", peak, window)
			}
			for _, id := range live {
				ctl.Remove(id)
			}
			held = map[int]decl{}
			check("every call removed")
			if ctl.TotalRate() != 0 {
				t.Errorf("%b b/s left once every call was removed", ctl.TotalRate())
			}
		})
	}
}
