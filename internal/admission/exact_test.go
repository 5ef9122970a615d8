package admission

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"leaveintime/internal/calculus"
	"leaveintime/internal/rng"
)

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func shuffled[T any](r *rng.Rand, in []T) []T {
	out := append([]T(nil), in...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestExactSumAgainstBig: under random adds and take-backs of terms
// spread over many binades — enough partials to leave the inline four —
// the expansion always reads back the correctly rounded exact sum, and
// is empty, not merely small, once everything is taken back.
func TestExactSumAgainstBig(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		var s exactSum
		var live []float64
		spilled := false
		for op := 0; op < 400; op++ {
			if len(live) == 0 || r.Intn(3) > 0 {
				x := math.Ldexp(0.5+r.Float64(), r.Intn(400)-200)
				if r.Intn(4) == 0 {
					x = -x
				}
				s.add(x)
				live = append(live, x)
			} else {
				i := r.Intn(len(live))
				s.add(-live[i])
				live = append(live[:i], live[i+1:]...)
			}
			spilled = spilled || s.n > len(s.head)
			if got, want := s.value(), bigSum(live...); got != want {
				t.Fatalf("seed %d op %d: %d terms read %b, exact sum rounds to %b", seed, op, len(live), got, want)
			}
		}
		if !spilled {
			t.Errorf("seed %d: never needed more than the inline partials", seed)
		}
		for _, x := range shuffled(r, live) {
			s.add(-x)
		}
		if s.n != 0 || s.value() != 0 {
			t.Fatalf("seed %d: %d partials (%g) left after taking every term back", seed, s.n, s.value())
		}
	}
}

// TestExactSumRoundsOnce pins the read against the double roundings a
// running float sum makes: half an ulp ties to even, and a crumb beyond
// the half, of either sign, decides the tie however late it arrives.
func TestExactSumRoundsOnce(t *testing.T) {
	half, crumb := math.Ldexp(1, -53), math.Ldexp(1, -110)
	for _, tc := range []struct {
		terms []float64
		want  float64
	}{
		{[]float64{1, half}, 1},
		{[]float64{1, half, crumb}, nextUp(1)},
		{[]float64{crumb, half, 1}, nextUp(1)},
		{[]float64{1, half, -crumb}, 1},
		{[]float64{nextUp(1), half}, nextUp(nextUp(1))},
		{[]float64{nextUp(1), half, -crumb}, nextUp(1)},
		{[]float64{0.1, 0.2, 0.3, -0.3, -0.2}, 0.1},
		{[]float64{1e100, 1, -1e100}, 1},
	} {
		var s exactSum
		for _, x := range tc.terms {
			s.add(x)
		}
		if got := s.value(); got != tc.want || got != bigSum(tc.terms...) {
			t.Errorf("%v reads %b, want %b", tc.terms, got, tc.want)
		}
	}
}

// TestControllerIDPatterns drives a controller through churn in the id
// patterns its table meets — ids that never repeat, as System.Connect
// issues them; ids clustered at a stride of 1 024, so the live set spans
// many pages and chunks; and one straggler admitted first and kept live
// far below the window — and checks after every step that the verdict,
// TotalRate, the live count and every live booking agree with the
// reference, and that a second admission of a live id is refused.
func TestControllerIDPatterns(t *testing.T) {
	const c = 1e6
	for _, pat := range []struct {
		name      string
		stride    int
		straggler bool
	}{{"never repeat", 0, false}, {"stride 1024", 1024, false}, {"straggler", 0, true}} {
		for seed := uint64(1); seed <= 8; seed++ {
			r := rng.New(seed)
			ctl, err := newClassController(1+int(seed%2), c, fastClasses(c))
			if err != nil {
				t.Fatal(err)
			}
			ref := &refController{c: c, classes: ctl.Classes, proc: ctl.proc}
			spec := func(id int) SessionSpec {
				l := 424 + float64(r.Intn(3))*300
				return SessionSpec{ID: id, Rate: c * (0.0005 + 0.002*r.Float64()), LMax: l, LMin: l}
			}
			var ids []int
			next := 0
			if pat.straggler {
				s := spec(0)
				if _, err := ctl.Admit(s, 3, Options{}); err != nil {
					t.Fatal(err)
				}
				ref.admit([]SessionSpec{s}, 3)
				next = 1 << 16 // the window starts 256 chunks above it
			}
			for op := 0; op < 3000; op++ {
				where := fmt.Sprintf("%s seed %d op %d", pat.name, seed, op)
				if len(ids) == 0 || r.Intn(5) < 3 && len(ids) < 200 {
					next += 1 + r.Intn(3)*pat.stride
					s, j := spec(next), 1+r.Intn(3)
					rej, _ := ref.admit([]SessionSpec{s}, j)
					_, err := ctl.Admit(s, j, Options{})
					if (err == nil) != (rej.Rule == 0) {
						t.Fatalf("%s: id %d admitted = %v, reference refuses with %+v", where, s.ID, err == nil, rej)
					}
					if err == nil {
						ids = append(ids, s.ID)
						if _, err := ctl.Admit(s, j, Options{}); err == nil || errors.Is(err, ErrRejected) {
							t.Fatalf("%s: second admission of live id %d got %v", where, s.ID, err)
						}
					}
				} else {
					k := r.Intn(len(ids))
					if got, want := ctl.Remove(ids[k]), ref.remove(ids[k]); !got || !want {
						t.Fatalf("%s: Remove(%d) = %v, reference %v", where, ids[k], got, want)
					}
					ids = append(ids[:k], ids[k+1:]...)
				}
				if got, want := ctl.TotalRate(), ref.totalRate(); got != want || ctl.live.Len() != len(ref.members) {
					t.Fatalf("%s: TotalRate %b over %d ids, reference %b over %d", where, got, ctl.live.Len(), want, len(ref.members))
				}
				checkBookings(t, where, ctl, ref)
			}
			for _, id := range ids {
				ctl.Remove(id)
			}
			if pat.straggler && !ctl.Remove(0) {
				t.Fatalf("%s seed %d: the straggler was lost", pat.name, seed)
			}
			if ctl.TotalRate() != 0 || ctl.live.Len() != 0 {
				t.Fatalf("%s seed %d: %b b/s over %d ids left once every call was removed", pat.name, seed, ctl.TotalRate(), ctl.live.Len())
			}
		}
	}
}

// TestNegativeIDRefused: a negative id is a malformed declaration —
// Check, Admit and AdmitClass return an error and book nothing — not a
// panic in the id table.
func TestNegativeIDRefused(t *testing.T) {
	const c = 1e6
	ctl, err := NewClassController(1, c, fastClasses(c))
	if err != nil {
		t.Fatal(err)
	}
	good := SessionSpec{ID: 1, Rate: 0.01 * c, LMax: 424, LMin: 424}
	if _, err := ctl.Admit(good, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.ID = -1
	if err := ctl.Check(bad, 1, Options{}); err == nil {
		t.Error("Check accepted id -1")
	}
	if _, err := ctl.Admit(bad, 1, Options{}); err == nil || errors.Is(err, ErrRejected) {
		t.Errorf("Admit of id -1 got %v, want a plain error", err)
	}
	batch := []SessionSpec{{ID: 2, Rate: good.Rate, LMax: 424, LMin: 424}, bad}
	if _, ok := ctl.AdmitClass(nil, batch, 1, Options{}); ok {
		t.Error("AdmitClass accepted a batch holding id -1")
	}
	if ctl.TotalRate() != good.Rate || ctl.live.Len() != 1 || ctl.Remove(2) {
		t.Fatalf("refusals left %g b/s over %d ids, want id 1's %g alone", ctl.TotalRate(), ctl.live.Len(), good.Rate)
	}
}

// TestBookingSize pins the bytes every live session costs at every
// controller on its route, a 4-byte index, and the interned entry that
// every session of one class, rate and L_MAX shares.
func TestBookingSize(t *testing.T) {
	var p ClassController
	if got := unsafe.Sizeof(*p.live.Get(0)); got != 4 {
		t.Errorf("a booking's slot is %d B, want 4: a wider slot is a deliberate per-call cost at every hop; record it in DESIGN.md (\"What a standing call keeps\")", got)
	}
	if got := unsafe.Sizeof(*p.books.At(0)); got != 40 {
		t.Errorf("an interned booking is %d B, want 40: one per distinct (class, rate, L_MAX) live at a hop; record a change in DESIGN.md (\"What a standing call keeps\")", got)
	}
}

// awkwardSet is n sessions over three classes whose rates are not
// short binary fractions (tenths and thirds of the link, as r_frac
// class tables and documents produce) with mixed packet lengths.
func awkwardSet(c float64, firstID, n int) ([]SessionSpec, []int) {
	specs, classes := make([]SessionSpec, n), make([]int, n)
	for i := range specs {
		rate := 0.1 * c * float64(1+i%3) / 16
		if i%2 == 1 {
			rate = c / 3 / float64(20+i)
		}
		l := []float64{424, 1000, 424 * 3, 12000 / 7.0}[i%4]
		specs[i] = SessionSpec{ID: firstID + i, Rate: rate, LMax: l, LMin: l / 2}
		classes[i] = 1 + i%3
	}
	return specs, classes
}

// roomyClasses leave the sigma budgets wide, so that the rate rule is
// the one a test steers into.
func roomyClasses(c float64) []Class {
	return []Class{{R: 0.3 * c, Sigma: 0.02}, {R: 0.6 * c, Sigma: 0.05}, {R: c, Sigma: 0.1}}
}

func sameAssignment(a, b Assignment, spec SessionSpec) bool {
	return a.DMax == b.DMax && a.DMin == b.DMin && a.Class == b.Class && a.D(spec.LMin) == b.D(spec.LMin)
}

// TestOrderIndependence: one set of sessions established in twenty
// shuffled orders, with other sessions coming and going in between,
// leaves bit-identical state: TotalRate, every grant, and the verdict —
// down to the Need a refusal reports — on a probe sized to the last bit
// of class P's rate budget and on one an ulp larger.
func TestOrderIndependence(t *testing.T) {
	const c = 1.536e6
	for proc := 1; proc <= 2; proc++ {
		set, setClass := awkwardSet(c, 1, 30)
		guests, guestClass := awkwardSet(c, 101, 12)
		var rates []float64
		for _, s := range set {
			rates = append(rates, s.Rate)
		}
		limit := c + rateTol(c)
		total := func(x float64) float64 { return bigSum(append(rates[:len(rates):len(rates)], x)...) }
		fit, over := lastFit(limit-bigSum(rates...), limit, total)

		type outcome struct {
			total   float64
			grants  []Assignment
			overErr RejectError
		}
		run := func(r *rng.Rand) outcome {
			p, err := newClassController(proc, c, roomyClasses(c))
			if err != nil {
				t.Fatal(err)
			}
			out := outcome{grants: make([]Assignment, len(set))}
			order := make([]int, len(set)+len(guests)) // >= len(set): a guest
			for i := range order {
				order[i] = i
			}
			var staying []int
			if r != nil {
				order = shuffled(r, order)
			}
			for _, i := range order {
				if i < len(set) {
					a, err := p.Admit(set[i], setClass[i], Options{PerPacket: true})
					if err != nil {
						t.Fatalf("procedure %d: session %d: %v", proc, set[i].ID, err)
					}
					out.grants[i] = a
				} else if r != nil {
					g := i - len(set)
					if _, err := p.Admit(guests[g], guestClass[g], Options{}); err == nil {
						staying = append(staying, guests[g].ID)
					}
				}
				if r != nil && len(staying) > 0 && r.Intn(2) == 0 {
					k := r.Intn(len(staying))
					p.Remove(staying[k])
					staying = append(staying[:k], staying[k+1:]...)
				}
			}
			for _, id := range staying {
				p.Remove(id)
			}
			out.total = p.TotalRate()
			probe := SessionSpec{ID: 999, Rate: fit, LMax: 1, LMin: 1}
			if _, err := p.Admit(probe, 3, Options{}); err != nil {
				t.Fatalf("procedure %d: the probe that fills C to the last bit: %v", proc, err)
			}
			if got := p.TotalRate(); got != limit {
				t.Fatalf("procedure %d: filled to %b, want the limit %b", proc, got, limit)
			}
			p.Remove(999)
			probe.Rate = over
			var rej *RejectError
			if _, err := p.Admit(probe, 3, Options{}); !errors.As(err, &rej) {
				t.Fatalf("procedure %d: the probe one ulp over: %v", proc, err)
			}
			out.overErr = *rej
			return out
		}
		want := run(nil)
		if want.total != bigSum(rates...) {
			t.Fatalf("procedure %d: TotalRate %b, exact sum %b", proc, want.total, bigSum(rates...))
		}
		if e := want.overErr; e.Rule != 1 || e.Class != 3 || e.Need != nextUp(limit) || e.Have != c {
			t.Fatalf("procedure %d: one ulp over refused as %+v", proc, e)
		}
		for shuffle := uint64(1); shuffle <= 20; shuffle++ {
			got := run(rng.New(shuffle))
			if got.total != want.total || got.overErr != want.overErr {
				t.Fatalf("procedure %d shuffle %d: total %b, refusal %+v; in listed order %b, %+v",
					proc, shuffle, got.total, got.overErr, want.total, want.overErr)
			}
			for i := range set {
				if !sameAssignment(got.grants[i], want.grants[i], set[i]) {
					t.Fatalf("procedure %d shuffle %d: session %d granted %+v, in listed order %+v",
						proc, shuffle, set[i].ID, got.grants[i], want.grants[i])
				}
			}
		}
	}
}

// lastFit searches by ulps from guess for the largest x with
// total(x) <= limit, and returns it with the next float up, for which
// total is over the limit. total must be nondecreasing.
func lastFit(guess, limit float64, total func(float64) float64) (fit, over float64) {
	x := guess
	for total(x) <= limit {
		x = nextUp(x)
	}
	for total(x) > limit {
		x = math.Nextafter(x, 0)
	}
	return x, nextUp(x)
}

// TestBatchIsSequentialAtTheLastBit: AdmitClass accepts a batch exactly
// when sequential Admit, in any order, accepts every member — shown with
// no tolerance band on a batch that brings a class to the last bit of
// its budget and on the same batch one ulp larger, for the rate rule
// (class 2's R reached from class 1) and for the sigma rule.
func TestBatchIsSequentialAtTheLastBit(t *testing.T) {
	const c = 1.536e6
	classes := roomyClasses(c)
	standing, standingClass := awkwardSet(c, 1, 9)
	// A third of the link standing in class 2, so that class 2's R runs
	// out while the batch is still well inside class 1's.
	standing = append(standing, SessionSpec{ID: 40, Rate: c / 3, LMax: 424, LMin: 424})
	standingClass = append(standingClass, 2)
	batch, _ := awkwardSet(c, 50, 6)
	last := len(batch) - 1

	// through(m, get) lists get(s) over the standing sessions of classes
	// <= m and the whole batch, which joins class 1.
	through := func(m int, get func(SessionSpec) float64) []float64 {
		var terms []float64
		for i, s := range standing {
			if standingClass[i] <= m {
				terms = append(terms, get(s))
			}
		}
		for _, s := range batch[:last] {
			terms = append(terms, get(s))
		}
		return terms
	}
	rate := func(s SessionSpec) float64 { return s.Rate }
	sigma := func(s SessionSpec) float64 { return s.LMax / c }

	type edge struct {
		name        string
		proc        int
		fit, over   SessionSpec
		rule, class int
		limit       float64
	}
	var edges []edge
	{
		terms, limit := through(2, rate), classes[1].R+rateTol(classes[1].R)
		fit, over := lastFit(limit-bigSum(terms...), limit, func(x float64) float64 {
			return bigSum(append(terms[:len(terms):len(terms)], x)...)
		})
		e := edge{name: "rate", proc: 1, rule: 1, class: 2, limit: limit, fit: batch[last], over: batch[last]}
		e.fit.Rate, e.over.Rate = fit, over
		edges = append(edges, e)
	}
	{
		terms, limit := through(1, sigma), classes[0].Sigma+1e-12
		fit, over := lastFit((limit-bigSum(terms...))*c, limit, func(l float64) float64 {
			return bigSum(append(terms[:len(terms):len(terms)], l/c)...)
		})
		e := edge{name: "sigma", proc: 2, rule: 2, class: 1, limit: limit, fit: batch[last], over: batch[last]}
		e.fit.LMax, e.over.LMax = fit, over
		e.fit.LMin, e.over.LMin = 1, 1
		edges = append(edges, e)
	}

	for _, e := range edges {
		preload := func() *ClassController {
			p, err := newClassController(e.proc, c, classes)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range standing {
				if _, err := p.Admit(s, standingClass[i], Options{}); err != nil {
					t.Fatalf("%s: standing session %d: %v", e.name, s.ID, err)
				}
			}
			return p
		}
		read := func(p *ClassController) float64 {
			if e.rule == 1 {
				return p.sums[e.class-1].rate.value()
			}
			return p.sums[e.class-1].sigma.value()
		}
		for _, tc := range []struct {
			name   string
			member SessionSpec
			fits   bool
		}{{"to the last bit", e.fit, true}, {"one ulp over", e.over, false}} {
			members := append(append([]SessionSpec(nil), batch[:last]...), tc.member)
			p := preload()
			before := p.TotalRate()
			if _, ok := p.AdmitClass(nil, members, 1, Options{}); ok != tc.fits {
				t.Fatalf("%s, %s: AdmitClass accepted = %v", e.name, tc.name, ok)
			}
			if tc.fits && read(p) != e.limit {
				t.Fatalf("%s, %s: class %d holds %b, want the limit %b", e.name, tc.name, e.class, read(p), e.limit)
			}
			if !tc.fits && (p.TotalRate() != before || p.live.Len() != len(standing)) {
				t.Fatalf("%s, %s: the declined batch left %b b/s, %d ids booked", e.name, tc.name, p.TotalRate(), p.live.Len())
			}
			for shuffle := uint64(1); shuffle <= 20; shuffle++ {
				p := preload()
				order := shuffled(rng.New(shuffle), members)
				for k, s := range order {
					_, err := p.Admit(s, 1, Options{})
					if tc.fits || k < len(order)-1 {
						if err != nil {
							t.Fatalf("%s, %s, shuffle %d: member %d of %d: %v", e.name, tc.name, shuffle, k+1, len(order), err)
						}
						continue
					}
					var rej *RejectError
					if !errors.As(err, &rej) || rej.Rule != e.rule || rej.Class != e.class || !(rej.Need > e.limit) {
						t.Fatalf("%s, %s, shuffle %d: the member that completes the set got %v", e.name, tc.name, shuffle, err)
					}
				}
			}
		}
	}
}

// TestDuplicateSessionID: an id that is still live is refused — by
// Admit of every procedure with a plain error that is not a capacity
// verdict, by AdmitClass as a declined batch, whether the id clashes
// with the live set or within the batch — and nothing is booked, so one
// Remove frees the id's whole reservation.
func TestDuplicateSessionID(t *testing.T) {
	const c = 1e6
	classes := []Class{{R: 0.5 * c, Sigma: 0.01}, {R: c, Sigma: 0.1}}
	spec := func(id int) SessionSpec { return SessionSpec{ID: id, Rate: 0.1 * c, LMax: 400, LMin: 400} }
	opts := Options{D: 0.01}
	admit := func(class int) func(Controller) error {
		return func(ctl Controller) error {
			_, err := ctl.Admit(spec(1), class, opts)
			if err != nil && !strings.Contains(err.Error(), "session 1 is already admitted") {
				t.Errorf("refusal does not name the id: %v", err)
			}
			return err
		}
	}
	batch := func(class int, ids ...int) func(Controller) error {
		return func(ctl Controller) error {
			specs := make([]SessionSpec, len(ids))
			for i, id := range ids {
				specs[i] = spec(id)
			}
			if _, ok := ctl.(*ClassController).AdmitClass(nil, specs, class, opts); ok {
				return nil
			}
			return errors.New("declined")
		}
	}
	for _, tc := range []struct {
		name string
		proc int
		// again tries to book a live id a second time, with id 1 live.
		again func(Controller) error
	}{
		{"procedure 1 Admit", 1, admit(1)},
		{"procedure 2 Admit", 2, admit(1)},
		{"procedure 3 Admit", 3, admit(1)},
		{"Admit into another class", 2, admit(2)},
		{"AdmitClass against the live set", 1, batch(1, 2, 1)},
		{"AdmitClass within the batch", 2, batch(2, 2, 3, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, err := New(tc.proc, c, classes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.Admit(spec(1), 1, opts); err != nil {
				t.Fatal(err)
			}
			if err := tc.again(ctl); err == nil || errors.Is(err, ErrRejected) {
				t.Fatalf("second booking of a live id: got %v, want a plain error", err)
			}
			if got := ctl.TotalRate(); got != spec(1).Rate {
				t.Fatalf("the refused duplicate left %g b/s booked, want %g", got, spec(1).Rate)
			}
			if !ctl.Remove(1) || ctl.Remove(1) || ctl.Remove(2) || ctl.Remove(3) {
				t.Fatal("want exactly one booking, of id 1")
			}
			if got := ctl.TotalRate(); got != 0 {
				t.Fatalf("%g b/s leaked", got)
			}
			if _, err := ctl.Admit(spec(1), 1, opts); err != nil {
				t.Fatalf("re-admission after Remove: %v", err)
			}
		})
	}
}

// TestRefusalWritesNoSum: in the daemon's shape — 45 voice calls in
// the one class of a T1 controller behind a curve gate — a T1-rate
// candidate refused by Admit, by AdmitGated and AdmitClass with the
// gate, and by Reserve's memo hit leaves every class sum the run it was
// (45 terms of one rate, no partials), the id table at 45, one interned
// booking held (the voice calls', freed once they are removed) and the
// gate as it stood. The rules read the totals plus the candidate; a
// refusal never writes a sum.
func TestRefusalWritesNoSum(t *testing.T) {
	const t1, voice, cell = 1536e3, 32e3, 424.0
	ctl, err := NewClassController(0, t1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := NewCurveGate(calculus.FCFSServer{C: t1, LMax: cell}, 0)
	for id := 1; id <= 45; id++ {
		if _, ok := ctl.AdmitClass(gate, []SessionSpec{{ID: id, Rate: voice, LMax: cell, LMin: cell}}, 1, Options{}); !ok {
			t.Fatalf("voice call %d refused", id)
		}
	}
	rate, burst, delay := gate.rate, gate.burst, gate.lastDelay
	big := SessionSpec{ID: 100, Rate: t1, LMax: cell, LMin: cell}
	unchanged := func(how string) {
		t.Helper()
		for m, sum := range ctl.sums {
			for _, s := range []*exactSum{&sum.rate, &sum.sigma} {
				if s.count != 45 || s.n != 0 {
					t.Fatalf("after the refusal by %s, class %d's sum holds a run of %d and %d partials, want a run of 45",
						how, m+1, s.count, s.n)
				}
			}
		}
		if n := ctl.live.Len(); n != 45 {
			t.Fatalf("after the refusal by %s, %d ids live, want 45", how, n)
		}
		if n, _, _, err := ctl.books.Census(); n != 1 || err != nil {
			t.Fatalf("after the refusal by %s, %d entries held (%v), want the voice calls' one", how, n, err)
		}
		if gate.rate != rate || gate.burst != burst || gate.lastDelay != delay {
			t.Fatalf("after the refusal by %s, the gate holds (%g, %g, %g), want (%g, %g, %g)",
				how, gate.rate, gate.burst, gate.lastDelay, rate, burst, delay)
		}
	}
	var rej *RejectError
	if _, err := ctl.Admit(big, 1, Options{}); !errors.As(err, &rej) || rej.Need != 45*voice+t1 {
		t.Fatalf("Admit of a T1-rate call: %v (%+v), want a rule 1 refusal needing %g", err, rej, 45*voice+t1)
	}
	unchanged("Admit")
	if _, err := ctl.AdmitGated(gate, big, 1, Options{}); !errors.As(err, &rej) || rej.Need != 45*voice+t1 {
		t.Fatalf("AdmitGated of a T1-rate call: %v (%+v), want a rule 1 refusal needing %g", err, rej, 45*voice+t1)
	}
	unchanged("AdmitGated")
	if _, ok := ctl.AdmitClass(gate, []SessionSpec{big}, 1, Options{}); ok {
		t.Fatal("AdmitClass accepted a T1-rate call")
	}
	unchanged("AdmitClass")
	req := Request{Spec: big, Class: 1}
	if err := Reserve([]Link{{Name: "t1", Ctrl: ctl, C: t1}}, &req, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("Reserve of a T1-rate call: %v, want a refusal", err)
	}
	unchanged("Reserve")
	for id := 1; id <= 45; id++ {
		ctl.Remove(id)
	}
	if n, _, _, _ := ctl.books.Census(); n != 0 {
		t.Fatalf("%d entries held once every voice call was removed: a refusal left a count on theirs", n)
	}
}

// TestRejectErrorCarriesItsNumbers: a rule refusal is a *RejectError
// holding both sides of the inequality that failed, it still is
// ErrRejected, and its text is the sentence refusals always were.
func TestRejectErrorCarriesItsNumbers(t *testing.T) {
	c := 1e6 // not a constant: the quotients below must round as the controller's do
	classes := []Class{{R: 0.25 * c, Sigma: 1e-3}, {R: c, Sigma: 2e-3}}
	for _, tc := range []struct {
		name   string
		proc   int
		spec   SessionSpec
		class  int
		want   RejectError
		errStr string
	}{
		{"rate at the session's own class", 1, SessionSpec{ID: 9, Rate: 0.125 * c, LMax: 100, LMin: 100}, 1,
			RejectError{Proc: 1, Rule: 1, Class: 1, Need: 0.3125 * c, Have: 0.25 * c}, "admission rejected: rule 1.1 fails at class 1"},
		{"rate at a class above", 2, SessionSpec{ID: 9, Rate: 0.875 * c, LMax: 100, LMin: 100}, 2,
			RejectError{Proc: 2, Rule: 1, Class: 2, Need: 1.0625 * c, Have: c}, "admission rejected: rule 2.1 fails at class 2"},
		{"sigma", 1, SessionSpec{ID: 9, Rate: 1, LMax: 1000, LMin: 100}, 1,
			RejectError{Proc: 1, Rule: 2, Class: 1, Need: 1000/c + 250/c, Have: 1e-3}, "admission rejected: rule 1.2 fails at class 1"},
		{"sigma at class P, procedure 2 only", 2, SessionSpec{ID: 9, Rate: 1, LMax: 2000, LMin: 100}, 2,
			RejectError{Proc: 2, Rule: 2, Class: 2, Need: 2000/c + 250/c, Have: 2e-3}, "admission rejected: rule 2.2 fails at class 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, err := New(tc.proc, c, classes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.Admit(SessionSpec{ID: 1, Rate: 0.1875 * c, LMax: 250, LMin: 250}, 1, Options{}); err != nil {
				t.Fatal(err)
			}
			_, err = ctl.Admit(tc.spec, tc.class, Options{})
			var rej *RejectError
			if !errors.As(err, &rej) || !errors.Is(err, ErrRejected) {
				t.Fatalf("got %v, want a *RejectError that is ErrRejected", err)
			}
			if *rej != tc.want || err.Error() != tc.errStr {
				t.Errorf("got %+v %q, want %+v %q", *rej, err, tc.want, tc.errStr)
			}
			if got := ctl.TotalRate(); got != 0.1875*c {
				t.Errorf("the refusal left %g b/s booked", got)
			}
		})
	}
}

// TestAdmitAllocsDoNotGrowWithStandingCalls: one more session admitted
// and removed costs the same allocations beside 4095 standing calls as
// beside 47 — the grant's closure, nothing that scales with the set.
func TestAdmitAllocsDoNotGrowWithStandingCalls(t *testing.T) {
	const oc3 = 155.52e6
	classes := []Class{{R: oc3 / 3, Sigma: 5e-3}, {R: 2 * oc3 / 3, Sigma: 10e-3}, {R: oc3, Sigma: 15e-3}}
	voice := func(id int) SessionSpec { return SessionSpec{ID: id, Rate: 32e3, LMax: 424, LMin: 424} }
	measure := func(standing int) float64 {
		p, err := NewProcedure2(oc3, classes)
		if err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= standing; id++ {
			if _, err := p.Admit(voice(id), 1+id%3, Options{PerPacket: true}); err != nil {
				t.Fatal(err)
			}
		}
		id := standing
		return testing.AllocsPerRun(2000, func() {
			id++ // a new id every call, as under churn
			if _, err := p.Admit(voice(id), 1, Options{PerPacket: true}); err != nil {
				t.Fatal(err)
			}
			p.Remove(id)
		})
	}
	if small, large := measure(47), measure(4095); small != large {
		t.Errorf("Admit+Remove allocates %v times beside 47 standing calls and %v beside 4095", small, large)
	}
}

// admitScript interprets data as a script of admissions, removals and
// batches and runs it against a controller and against the reference
// that re-sums the live members with math/big: verdict, failing rule
// and class, the Need a refusal reports and TotalRate must agree, to
// the bit, after every step. Ids come from a space of sixteen, so
// duplicates and removals of unknown ids are common; one step in five
// sizes its session to land within a few ulps of a class's budget. Each
// step also draws eps and the d rule, and every grant must be the one
// affineAssignment builds afresh (checkGrant): the class memo's oracle.
func admitScript(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	c := []float64{1e6, 1.536e6, 155.52e6}[int(data[0]>>1)%3]
	proc := 1 + int(data[0]&1)
	ctl, err := newClassController(proc, c, []Class{
		{RFrac: 0.3, Sigma: 6 * 424 / c}, {RFrac: 0.6, Sigma: 20 * 424 / c}, {RFrac: 1, Sigma: 40 * 424 / c}})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refController{c: c, classes: ctl.Classes, proc: proc}
	data = data[1:]
	for step := 0; len(data) >= 4; step++ {
		op, a, b, d := data[0], data[1], data[2], data[3]
		data = data[4:]
		id, j := int(a%16), 1+int(b%3)
		opts := Options{PerPacket: a&0x10 != 0, Eps: []float64{0, math.Copysign(0, -1), 1e-3, 0.1 / 3}[(a>>5)%4]}
		l := []float64{424, 1000, 12000, 424*3 + 0.5}[(b>>2)%4]
		spec := SessionSpec{ID: id, LMax: l, LMin: l / 2,
			Rate: c * float64(1+d%12) / []float64{10, 30, 7, 64}[(d>>4)%4]}
		where := fmt.Sprintf("step %d (op %d id %d class %d)", step, op%5, id, j)
		switch op % 5 {
		case 1:
			if got, want := ctl.Remove(id), ref.remove(id); got != want {
				t.Fatalf("%s: Remove reported %v, reference %v", where, got, want)
			}
		case 2:
			n, stride := 1+int(d%4), int(d>>2)%4 // stride 0 repeats the id
			batch := make([]SessionSpec, n)
			for k := range batch {
				batch[k] = spec
				batch[k].ID = (id + k*stride) % 16
				batch[k].Rate = spec.Rate / float64(k+2)
			}
			rej, dup := ref.admit(batch, j)
			grants, ok := ctl.AdmitClass(nil, batch, j, opts)
			if ok != (!dup && rej.Rule == 0) {
				t.Fatalf("%s: batch of %d accepted = %v; reference: duplicate %v, refusal %+v", where, n, ok, dup, rej)
			}
			for k, g := range grants {
				checkGrant(t, where, ctl, batch[k], j, opts, g)
			}
		default:
			// Ops 3 and 4 aim at class m's rate or sigma budget: what is
			// left of it in floating point, a few ulps either way.
			m := max(j, 1+int(d%3))
			rate, sigma := ref.room(m)
			if ulps := int(d>>2) - 32; op%5 == 3 {
				spec.Rate = nudge(rate, ulps)
			} else if op%5 == 4 {
				spec.LMax = nudge(sigma*c, ulps)
				spec.LMin = spec.LMax
			}
			if spec.validate() != nil {
				continue
			}
			rej, dup := ref.admit([]SessionSpec{spec}, j)
			grant, err := ctl.Admit(spec, j, opts)
			if err == nil {
				checkGrant(t, where, ctl, spec, j, opts, grant)
			}
			var got *RejectError
			switch {
			case dup:
				if err == nil || errors.Is(err, ErrRejected) {
					t.Fatalf("%s: duplicate id got %v", where, err)
				}
			case rej.Rule != 0:
				if !errors.As(err, &got) || *got != rej {
					t.Fatalf("%s: got %v (%+v), reference refuses with %+v", where, err, got, rej)
				}
			case err != nil:
				t.Fatalf("%s: %v; the reference admits", where, err)
			}
		}
		if got, want := ctl.TotalRate(), ref.totalRate(); got != want || ctl.live.Len() != len(ref.members) {
			t.Fatalf("%s: TotalRate %b over %d ids, reference %b over %d", where, got, ctl.live.Len(), want, len(ref.members))
		}
		checkBookings(t, where, ctl, ref)
	}
}

// checkBookings fails unless ctl's interned bookings are the reference's
// live declarations: one live entry per distinct (class, rate, L_MAX/C),
// each id holding its own, the table's links whole.
func checkBookings(t *testing.T, where string, ctl *ClassController, ref *refController) {
	t.Helper()
	live, _, _, err := ctl.books.Census()
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	distinct := map[booking]bool{}
	for _, m := range ref.members {
		want := bookingOf(m.class, m.rate, m.sigma)
		if b, ok := ctl.booked(m.id); !ok || b != want {
			t.Fatalf("%s: id %d booked %+v, reference %+v", where, m.id, b, m)
		}
		distinct[want] = true
	}
	if live != len(distinct) {
		t.Fatalf("%s: %d live entries for %d live declarations", where, live, len(distinct))
	}
}

// checkGrant fails unless got is, to the bit, the grant affineAssignment
// builds afresh for the request: d at both ends of the length envelope
// and between them, DMax, DMin and the class.
func checkGrant(t *testing.T, where string, ctl *ClassController, spec SessionSpec, j int, opts Options, got Assignment) {
	t.Helper()
	var lo Class // R_0 = sigma_0 = 0
	if j > 1 {
		lo = ctl.Classes[j-2]
	}
	r, sigma := ctl.Classes[j-1].R, lo.Sigma
	if ctl.proc == 2 {
		r, sigma = lo.R, ctl.Classes[j-1].Sigma
	}
	want := affineAssignment(spec, r, sigma, ctl.C, j, opts)
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, l := range []float64{spec.LMin, spec.LMin + (spec.LMax-spec.LMin)/3, spec.LMax} {
		if !same(got.D(l), want.D(l)) {
			t.Fatalf("%s: session %d (%+v) granted d(%g) = %b, afresh %b", where, spec.ID, opts, l, got.D(l), want.D(l))
		}
	}
	if !same(got.DMax, want.DMax) || !same(got.DMin, want.DMin) || got.Class != want.Class {
		t.Fatalf("%s: session %d (%+v) granted DMax %b DMin %b class %d, afresh %b %b %d",
			where, spec.ID, opts, got.DMax, got.DMin, got.Class, want.DMax, want.DMin, want.Class)
	}
}

func nudge(x float64, ulps int) float64 {
	for ; ulps > 0; ulps-- {
		x = nextUp(x)
	}
	for ; ulps < 0; ulps++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestAdmitRemoveScripts runs the fuzz target's property over random
// scripts on every go test.
func TestAdmitRemoveScripts(t *testing.T) {
	r := rng.New(16)
	for n := 0; n < 300; n++ {
		script := make([]byte, 1+4*150)
		for i := range script {
			script[i] = byte(r.Uint64())
		}
		admitScript(t, script)
	}
}

func FuzzAdmitRemove(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x03\x00\x01\x00\x22\x00\x02\x01\x13\x03\x03\x02\x80\x01\x01\x00\x00\x02\x04\x00\x01\x04\x05\x00\x82"))
	f.Fuzz(admitScript)
}
