package admission

import (
	"errors"
	"math"
	"strings"
	"testing"

	"leaveintime/internal/metrics"
)

// TestControllerInterface drives the three procedures through the one
// Controller interface, as every establishment path does, and checks the
// accept/reject sequences and grants the per-procedure tests pin on the
// concrete types: the Section 2 worked example for procedures 1 and 2,
// the ineq. 19 pair for procedure 3, and the empty-class default.
func TestControllerInterface(t *testing.T) {
	c, worked := workedClasses()
	voice := func(id int, rate float64) SessionSpec {
		return SessionSpec{ID: id, Rate: rate, LMax: 400, LMin: 400}
	}
	kbit := func(id int) SessionSpec { return SessionSpec{ID: id, Rate: 1e3, LMax: 1000, LMin: 1000} }
	type step struct {
		spec  SessionSpec
		class int
		opts  Options
		d     float64 // granted DMax; 0 = must be refused with ErrRejected
		rule  string  // substring of the refusal
	}
	for _, tc := range []struct {
		name     string
		proc     int
		capacity float64
		classes  []Class
		steps    []step
		// block reads the procedure's own block of the arena, which must
		// be the only one SetMetrics made the controller count into.
		block func(metrics.Admission) metrics.ProcOutcome
	}{
		{
			name: "procedure 1", proc: 1, capacity: c, classes: worked,
			steps: []step{
				{spec: voice(1, 100e3), class: 1, d: 0.4e-3},
				{spec: voice(2, 100e3), class: 2, d: 1.8e-3},
				{spec: voice(3, 100e3), class: 3, d: 5.6e-3},
				{spec: voice(4, 10e3), class: 1, d: 4e-3},
				{spec: voice(5, 100e3), class: 1, opts: Options{Eps: 1e-3}, d: 1.4e-3},
				{spec: voice(6, 10e6), class: 1, rule: "rule 1.1 fails at class 1"},
				{spec: voice(7, 1e6), class: 2, d: 400*40e6/(1e6*c) + 0.2e-3},
			},
			block: func(a metrics.Admission) metrics.ProcOutcome { return a.AC1 },
		},
		{
			name: "procedure 2", proc: 2, capacity: c, classes: worked,
			steps: []step{
				{spec: voice(1, 100e3), class: 1, d: 0.2e-3},
				{spec: voice(2, 100e3), class: 2, d: 2.0e-3},
				{spec: voice(3, 100e3), class: 3, d: 5.6e-3},
				{spec: voice(4, 10e3), class: 1, d: 0.2e-3},
				{spec: voice(5, 10e6), class: 1, rule: "rule 2.1 fails at class 1"},
			},
			block: func(a metrics.Admission) metrics.ProcOutcome { return a.AC2 },
		},
		{
			// One class with sigma_P = 0: procedure 1 exempts class P from
			// the sigma test, procedure 2 does not.
			name: "procedure 1, class P exempt", proc: 1, capacity: 1e6, classes: []Class{{R: 1e6, Sigma: 0}},
			steps: []step{{spec: kbit(1), class: 1, d: 1}},
			block: func(a metrics.Admission) metrics.ProcOutcome { return a.AC1 },
		},
		{
			name: "procedure 2, class P tested", proc: 2, capacity: 1e6, classes: []Class{{R: 1e6, Sigma: 0}},
			steps: []step{{spec: kbit(1), class: 1, rule: "rule 2.2 fails at class 1"}},
			block: func(a metrics.Admission) metrics.ProcOutcome { return a.AC2 },
		},
		{
			name: "procedure 3", proc: 3, capacity: 1e6,
			steps: []step{
				{spec: kbit(1), opts: Options{D: 1.2e-3}, d: 1.2e-3},
				{spec: kbit(2), opts: Options{D: 1.2e-3}, rule: "inequality (19)"},
				{spec: kbit(2), opts: Options{D: 3e-3}, d: 3e-3},
				{spec: SessionSpec{ID: 3, Rate: 2e6, LMax: 10, LMin: 10}, opts: Options{D: 1}, rule: "exceeds capacity"},
			},
			block: func(a metrics.Admission) metrics.ProcOutcome { return a.AC3 },
		},
		{
			// No classes: procedure 1, one class over the whole link,
			// d = L/r, whatever procedure number came with them.
			name: "default", proc: 2, capacity: 1536e3,
			steps: []step{
				{spec: SessionSpec{ID: 1, Rate: 32e3, LMax: 424, LMin: 424}, class: 1, opts: Options{PerPacket: true}, d: 424 / 32e3},
				{spec: SessionSpec{ID: 2, Rate: 1536e3, LMax: 424, LMin: 424}, class: 1, rule: "rule 1.1 fails at class 1"},
			},
			block: func(a metrics.Admission) metrics.ProcOutcome { return a.AC1 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := New(tc.proc, tc.capacity, tc.classes)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			ctrl.SetMetrics(reg.Arena())
			var live []int
			var rate float64
			var want metrics.ProcOutcome
			for i, st := range tc.steps {
				a, err := ctrl.Admit(st.spec, st.class, st.opts)
				if st.d == 0 {
					want.Rejected++
					if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), st.rule) {
						t.Fatalf("step %d: got %v, want a refusal naming %q", i, err, st.rule)
					}
					continue
				}
				want.Accepted++
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if math.Abs(a.DMax-st.d) > 1e-12 || a.D(st.spec.LMax) != a.DMax {
					t.Errorf("step %d: DMax %v, D(LMax) %v, want %v", i, a.DMax, a.D(st.spec.LMax), st.d)
				}
				if tc.proc != 3 && a.Class != st.class {
					t.Errorf("step %d: class recorded as %d", i, a.Class)
				}
				live = append(live, st.spec.ID)
				rate += st.spec.Rate
			}
			if got := ctrl.TotalRate(); math.Abs(got-rate) > 1e-6 {
				t.Errorf("TotalRate %v, admitted %v", got, rate)
			}
			all := reg.AdmissionCounters()
			if got := tc.block(all); got != want {
				t.Errorf("counters %+v, want %+v", got, want)
			}
			if sum := all.AC1.Accepted + all.AC2.Accepted + all.AC3.Accepted; sum != want.Accepted {
				t.Errorf("another procedure's block was counted into: %+v", all)
			}
			for _, id := range live {
				if !ctrl.Remove(id) {
					t.Errorf("session %d not found", id)
				}
			}
			if ctrl.Remove(1) {
				t.Error("Remove found a session after every session was removed")
			}
			if got := ctrl.TotalRate(); got != 0 {
				t.Errorf("%v bits/s still reserved after removing every session", got)
			}
		})
	}
	if ctrl, err := New(7, 1e6, worked); err == nil || ctrl != nil {
		t.Errorf("procedure 7: got %v, %v", ctrl, err)
	}
	if ctrl, err := New(3, 0, nil); err == nil || ctrl != nil {
		t.Errorf("procedure 3 at zero capacity: got %v, %v", ctrl, err)
	}
}

// TestCheckRefusesNonFinite: an eps (procedures 1 and 2) or a d
// (procedure 3) that is NaN or infinite is a malformed request. Check,
// Admit and AdmitClass refuse it alike, booking nothing, where it once
// got a grant whose d, and every bound read off it, was not a number.
func TestCheckRefusesNonFinite(t *testing.T) {
	spec := SessionSpec{ID: 1, Rate: 32e3, LMax: 424, LMin: 424}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		proc int
		opts Options
	}{
		{1, Options{Eps: nan}}, {1, Options{Eps: inf, PerPacket: true}},
		{2, Options{Eps: nan, PerPacket: true}}, {2, Options{Eps: inf}},
		{3, Options{D: nan}}, {3, Options{D: inf}},
	} {
		ctrl, err := New(tc.proc, 1536e3, []Class{{RFrac: 1, Sigma: 0.01}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Check(spec, 1, tc.opts); err == nil {
			t.Errorf("procedure %d: Check passed %+v", tc.proc, tc.opts)
		}
		if a, err := ctrl.Admit(spec, 1, tc.opts); err == nil || errors.Is(err, ErrRejected) {
			t.Errorf("procedure %d, %+v: Admit granted d_max %g (err %v), want a plain error", tc.proc, tc.opts, a.DMax, err)
		}
		if cc, ok := ctrl.(*ClassController); ok {
			if _, ok := cc.AdmitClass(nil, []SessionSpec{spec}, 1, tc.opts); ok {
				t.Errorf("procedure %d: AdmitClass accepted %+v", tc.proc, tc.opts)
			}
		}
		if got := ctrl.TotalRate(); got != 0 {
			t.Errorf("procedure %d, %+v: %g b/s booked", tc.proc, tc.opts, got)
		}
	}
}

// TestNewDefault pins the one place the "no classes" default lives: a
// nil class list means procedure 1 with one class R = C (d = L/r)
// whatever valid procedure was asked for, an unknown procedure is
// refused before the default applies, and an empty non-nil list is the
// malformed hierarchy it always was.
func TestNewDefault(t *testing.T) {
	spec := SessionSpec{ID: 1, Rate: 32e3, LMax: 424, LMin: 424}
	for _, proc := range []int{0, 1, 2} {
		ctrl, err := New(proc, 1536e3, nil)
		if err != nil {
			t.Fatalf("procedure %d, no classes: %v", proc, err)
		}
		a, err := ctrl.Admit(spec, 1, Options{PerPacket: true})
		if err != nil || a.DMax != spec.LMax/spec.Rate {
			t.Errorf("procedure %d, no classes: d_max %v (err %v), want L/r", proc, a.DMax, err)
		}
	}
	for _, proc := range []int{-1, 4, 7} {
		if ctrl, err := New(proc, 1536e3, nil); err == nil || ctrl != nil {
			t.Errorf("procedure %d, no classes: got %v, %v", proc, ctrl, err)
		}
	}
	if ctrl, err := New(1, 1536e3, []Class{}); err == nil || ctrl != nil {
		t.Errorf("empty class list: got %v, %v", ctrl, err)
	}
}
