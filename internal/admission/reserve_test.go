package admission

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"leaveintime/internal/metrics"
	"leaveintime/internal/rng"
)

// TestMemoHitReserveMatchesAdmit: Reserve without grants (a class-memo
// hit, which validates the declaration once for the route and books each
// hop without building its d) decides every request as Reserve with
// grants, Admit at every hop, does. Twin three-hop routes of class
// controllers, one driven each way, run scripts of malformed
// declarations (refused at the first hop), classes and eps out of range,
// duplicate ids, rule 1 and rule 2 refusals part way along the route,
// and removals, then a random script. After every step the two routes
// must agree on the error text, the RejectError's fields (Need and Have
// by Float64bits), every hop's accept and reject counters and every
// hop's TotalRate bits.
func TestMemoHitReserveMatchesAdmit(t *testing.T) {
	classes := []Class{{RFrac: 0.1, Sigma: 0.2e-3}, {RFrac: 0.4, Sigma: 1.6e-3}, {RFrac: 1, Sigma: 4e-3}}
	caps := []float64{100e6, 45e6, 155.52e6}
	voice := func(id int) SessionSpec { return SessionSpec{ID: id, Rate: 64e3, LMax: 424, LMin: 424} }
	type step struct {
		req    Request
		remove bool // remove req.Spec.ID at every hop instead
	}
	fixed := []step{
		{req: Request{Spec: voice(1), Class: 1}},
		{req: Request{Spec: SessionSpec{ID: 2, Rate: 0, LMax: 424, LMin: 424}, Class: 1}},
		{req: Request{Spec: SessionSpec{ID: 2, Rate: 64e3, LMax: 400, LMin: 424}, Class: 1}},
		{req: Request{Spec: SessionSpec{ID: 2, Rate: math.NaN(), LMax: 424, LMin: 424}, Class: 1}},
		{req: Request{Spec: SessionSpec{ID: 2, Rate: 64e3, LMax: math.Inf(1), LMin: 424}, Class: 1}},
		{req: Request{Spec: SessionSpec{ID: -3, Rate: 64e3, LMax: 424, LMin: 424}, Class: 1}},
		{req: Request{Spec: voice(2), Class: 0}},
		{req: Request{Spec: voice(2), Class: 4}},
		{req: Request{Spec: voice(2), Class: 1, Opts: Options{Eps: -1e-3}}},
		{req: Request{Spec: voice(2), Class: 1, Opts: Options{Eps: math.NaN()}}},
		{req: Request{Spec: voice(1), Class: 2}}, // duplicate at the first hop
		// Rule 1 at class 1: 6 Mb/s fits R_1 = 10 Mb/s at the first hop
		// and not R_1 = 4.5 Mb/s at the second.
		{req: Request{Spec: SessionSpec{ID: 3, Rate: 6e6, LMax: 424, LMin: 424}, Class: 1}},
		// Rule 2 at class 1: L_MAX/C is 0.12 ms at the first hop and
		// 0.267 ms at the second, over sigma_1 = 0.2 ms.
		{req: Request{Spec: SessionSpec{ID: 4, Rate: 64e3, LMax: 12000, LMin: 424}, Class: 1}},
		// Rule 2 at class 2 on the third call of 0.667 ms at the second
		// hop, over sigma_2 = 1.6 ms.
		{req: Request{Spec: SessionSpec{ID: 5, Rate: 64e3, LMax: 30000, LMin: 424}, Class: 2}},
		{req: Request{Spec: SessionSpec{ID: 6, Rate: 64e3, LMax: 30000, LMin: 424}, Class: 2}},
		{req: Request{Spec: SessionSpec{ID: 7, Rate: 64e3, LMax: 30000, LMin: 424}, Class: 2, Opts: Options{PerPacket: true}}},
		// 4.44 ms more at the second hop: over sigma_3 = 4 ms, which
		// procedure 2 tests at class P and procedure 1 exempts.
		{req: Request{Spec: SessionSpec{ID: 9, Rate: 64e3, LMax: 200000, LMin: 424}, Class: 3}},
		{req: Request{Spec: voice(1)}, remove: true},
		{req: Request{Spec: voice(1), Class: 3}}, // the id is free again
		{req: Request{Spec: voice(8)}, remove: true},
	}
	for proc := 1; proc <= 2; proc++ {
		t.Run(fmt.Sprintf("procedure%d", proc), func(t *testing.T) {
			hit, admit := twinRoute(t, proc, caps, classes), twinRoute(t, proc, caps, classes)
			n := 0
			var refusals []string
			play := func(st step) {
				t.Helper()
				n++
				if st.remove {
					for i := range caps {
						a, b := hit.path[i].Ctrl.Remove(st.req.Spec.ID), admit.path[i].Ctrl.Remove(st.req.Spec.ID)
						if a != b {
							t.Fatalf("step %d: Remove(%d) at hop %d: %v without grants, %v with", n, st.req.Spec.ID, i, a, b)
						}
					}
				} else {
					req := st.req
					errHit := Reserve(hit.path, &req, nil)
					errAdmit := Reserve(admit.path, &req, make([]Assignment, len(caps)))
					sameRefusal(t, n, errHit, errAdmit)
					if errHit != nil {
						refusals = append(refusals, errHit.Error())
					}
					if req.Spec.validate() != nil && (errHit == nil || !strings.HasPrefix(errHit.Error(), "admission failed at hop0: ")) {
						t.Fatalf("step %d: malformed %+v refused as %v, want at the first hop", n, req.Spec, errHit)
					}
				}
				hit.agrees(t, n, admit)
			}
			for _, st := range fixed {
				play(st)
			}
			// The fixed script reaches every kind of refusal, and the rule
			// refusals past the first hop.
			all := strings.Join(refusals, "\n")
			for _, want := range []string{
				"hop0: admission: session 2: rate must be positive",
				"hop0: admission: session 2: need 0 < LMin <= LMax",
				"hop0: admission: session -3: id must be nonnegative",
				"hop0: admission: class 0 out of range",
				"hop0: admission: class 4 out of range",
				"hop0: admission: eps must be nonnegative",
				"hop0: admission: session 1 is already admitted",
				fmt.Sprintf("hop1: admission rejected: rule %d.1 fails at class 1", proc),
				fmt.Sprintf("hop1: admission rejected: rule %d.2 fails at class 1", proc),
				fmt.Sprintf("hop1: admission rejected: rule %d.2 fails at class 2", proc),
				map[int]string{1: "", 2: "hop1: admission rejected: rule 2.2 fails at class 3"}[proc],
			} {
				if !strings.Contains(all, want) {
					t.Errorf("no refusal reads %q; the script's refusals:\n%s", want, all)
				}
			}
			r := rng.New(uint64(proc))
			lens := []float64{424, 1000, 12000, 400}
			for i := 0; i < 400; i++ {
				id := 10 + r.Intn(40)
				st := step{req: Request{
					Spec:  SessionSpec{ID: id, Rate: []float64{64e3, 1.5e6, 0, 3e5}[r.Intn(4)], LMax: lens[r.Intn(4)], LMin: 424},
					Class: r.Intn(5),
					Opts:  Options{Eps: []float64{0, 1e-3, -1}[r.Intn(3)], PerPacket: r.Intn(2) == 0},
				}, remove: r.Intn(3) == 0}
				play(st)
			}
		})
	}
}

// twin is one route of class controllers, each counting into its own
// registry so that a count is the hop's own.
type twin struct {
	path   []Link
	counts []func() metrics.ProcOutcome
}

func twinRoute(t *testing.T, proc int, caps []float64, classes []Class) *twin {
	t.Helper()
	tw := &twin{}
	for i, c := range caps {
		ctrl, err := NewClassController(proc, c, classes)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		ctrl.SetMetrics(reg.Arena())
		tw.path = append(tw.path, Link{Name: fmt.Sprintf("hop%d", i), Ctrl: ctrl, C: c})
		tw.counts = append(tw.counts, func() metrics.ProcOutcome {
			a := reg.AdmissionCounters()
			return metrics.ProcOutcome{Accepted: a.AC1.Accepted + a.AC2.Accepted, Rejected: a.AC1.Rejected + a.AC2.Rejected}
		})
	}
	return tw
}

// agrees compares every hop's counters and TotalRate bits with u's.
func (tw *twin) agrees(t *testing.T, step int, u *twin) {
	t.Helper()
	for i := range tw.path {
		if a, b := tw.counts[i](), u.counts[i](); a != b {
			t.Fatalf("step %d: hop %d counted %+v without grants, %+v with", step, i, a, b)
		}
		a, b := tw.path[i].Ctrl.TotalRate(), u.path[i].Ctrl.TotalRate()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: hop %d TotalRate %b without grants, %b with", step, i, a, b)
		}
	}
}

// sameRefusal: both accepted, or both refused with the same text, the
// same ErrRejected wrapping and the same RejectError to the bit.
func sameRefusal(t *testing.T, step int, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) || a != nil && a.Error() != b.Error() {
		t.Fatalf("step %d: %v without grants, %v with", step, a, b)
	}
	if errors.Is(a, ErrRejected) != errors.Is(b, ErrRejected) {
		t.Fatalf("step %d: only one refusal wraps ErrRejected: %v", step, a)
	}
	var ra, rb *RejectError
	if errors.As(a, &ra) != errors.As(b, &rb) {
		t.Fatalf("step %d: only one refusal is a RejectError: %v", step, a)
	}
	if ra != nil && (ra.Proc != rb.Proc || ra.Rule != rb.Rule || ra.Class != rb.Class ||
		math.Float64bits(ra.Need) != math.Float64bits(rb.Need) || math.Float64bits(ra.Have) != math.Float64bits(rb.Have)) {
		t.Fatalf("step %d: RejectError %+v without grants, %+v with", step, *ra, *rb)
	}
}
