package scenarios

import (
	"testing"

	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/traffic"
)

// TestProcedure3EndToEnd drives admission control procedure 3 —
// arbitrary fixed d values guarded by inequality (19) — through a live
// Leave-in-Time server: the admitted set's packets must all finish
// within one L_MAX/C of their deadlines (no scheduler saturation), and
// each session's end-to-end delay must respect its eq. 12 bound with
// its own d.
func TestProcedure3EndToEnd(t *testing.T) {
	sim := event.New()
	net := network.New(sim, CellBits)
	disc := core.New(core.Config{Capacity: T1Rate, LMax: CellBits})
	port := net.NewPort("X", T1Rate, PropDelay, disc)
	ac, err := admission.NewProcedure3(T1Rate)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)

	// Three sessions with deliberately different d values; inequality
	// (19) must accept the set. With total L = 3*424 bits, any subset's
	// requirement is at most 3*424/C = 0.828 ms, so give the smallest
	// d = 1 ms and shift the rest upward.
	specs := []struct {
		rate float64
		d    float64
	}{
		{400e3, 1e-3},
		{600e3, 3e-3},
		{500e3, 8e-3},
	}
	type tracked struct {
		s     *network.Session
		bound float64
	}
	var all []tracked
	for i, sp := range specs {
		spec := admission.SessionSpec{ID: i + 1, Rate: sp.rate, LMax: CellBits, LMin: CellBits}
		a, err := ac.Admit(spec, 0, admission.Options{D: sp.d})
		if err != nil {
			t.Fatalf("session %d rejected: %v", i+1, err)
		}
		cfg := []network.SessionPort{{D: a.D, DMax: a.DMax}}
		src := traffic.NewShaped(
			&traffic.Poisson{Mean: CellBits / sp.rate, Length: CellBits, Rng: r.Split()},
			sp.rate, 2*CellBits)
		s := net.AddSession(i+1, sp.rate, false, []*network.Port{port}, cfg, src)
		route := admission.Route{
			Hops:  []admission.Hop{{C: T1Rate, Gamma: PropDelay, DMax: a.DMax}},
			LMax:  CellBits,
			Alpha: a.Alpha(spec),
		}
		all = append(all, tracked{s, route.DelayBound(2 * CellBits / sp.rate)})
	}
	// A fourth session demanding an infeasible d must be refused.
	bad := admission.SessionSpec{ID: 9, Rate: 30e3, LMax: CellBits, LMin: CellBits}
	if _, err := ac.Admit(bad, 0, admission.Options{D: 0.1e-3}); err == nil {
		t.Fatal("infeasible d accepted")
	}

	// Saturation check via tracing.
	var late float64
	net.Tracer = lateTracer2{&late}
	for _, tr := range all {
		tr.s.Start(0, 20)
	}
	sim.Run(25)

	onePkt := CellBits / T1Rate
	if late > onePkt+1e-9 {
		t.Errorf("deadline overrun %v exceeds one packet time %v — saturation under AC3", late, onePkt)
	}
	for i, tr := range all {
		if tr.s.Delivered == 0 {
			t.Fatalf("session %d starved", i+1)
		}
		if tr.s.Delays.Max() >= tr.bound {
			t.Errorf("session %d: delay %v >= its bound %v", i+1, tr.s.Delays.Max(), tr.bound)
		}
	}
}

type lateTracer2 struct{ max *float64 }

func (lt lateTracer2) Trace(e traceEvent) {
	if e.Kind == traceEnd {
		if l := e.Time - e.Deadline; l > *lt.max {
			*lt.max = l
		}
	}
}
