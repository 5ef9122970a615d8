package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
)

// Figures 14-17 parameters: admission control procedure 2 with two
// classes. Class 1 sessions get d = sigma_1 = 2.77 ms (rule 2.3 with
// R_0 = 0); class 2 sessions get d = L*R_1/(r*C) + sigma_2 = 18.8 ms.
var Fig14Classes = []admission.Class{
	{R: 640e3, Sigma: 2.77e-3},
	{R: T1Rate, Sigma: 13.25e-3},
}

// ClassRow is one sweep point for one measured session of the
// Figures 14-17 experiment.
type ClassRow struct {
	AOff     float64
	MaxDelay float64
	Jitter   float64
	Packets  int64
}

// ClassSession identifies one of the four measured sessions.
type ClassSession struct {
	Class      int
	JitterCtrl bool
	// Rows has one entry per a_OFF value.
	Rows []ClassRow
	// Bounds for the session's five-hop route.
	DelayBound  float64
	JitterBound float64
	// DPerNode is the service parameter d at every node (fixed-length
	// packets make it constant).
	DPerNode float64
}

// Fig14Result is the full Figures 14-17 sweep: the four measured
// five-hop sessions (class 1 and 2, with and without jitter control)
// in a MIX configuration of ON-OFF sessions, under admission control
// procedure 2 with two classes.
type Fig14Result struct {
	Duration float64
	Proc     int // 1 or 2 (the paper also reran with procedure 1)
	Sessions [4]*ClassSession
}

// RunFig14to17 reproduces Figures 14-17 with admission control
// procedure 2 (the paper's main run; 300 s per sweep point). Passing
// proc = 1 reruns the same experiment under procedure 1, reproducing
// the comparison discussed in the text. Sweep points run concurrently;
// results are deterministic in (duration, seed).
func RunFig14to17(duration float64, seed uint64, proc int) *Fig14Result {
	res := &Fig14Result{Duration: duration, Proc: proc}
	for i, cfg := range classSessionConfigs {
		res.Sessions[i] = &ClassSession{Class: cfg.class, JitterCtrl: cfg.ctrl}
		res.Sessions[i].Rows = make([]ClassRow, len(AOffValues))
	}
	// Bounds and d values are sweep-independent: fill them once from a
	// zero-length run's establishment phase (point index 0 does it
	// below on first write).
	forEachPoint(len(AOffValues), func(pi int) {
		runFig14Point(res, pi, AOffValues[pi], duration, seed, proc)
	})
	return res
}

var classSessionConfigs = [4]struct {
	class int
	ctrl  bool
}{
	{1, false}, {1, true}, {2, false}, {2, true},
}

func runFig14Point(res *Fig14Result, pi int, aOff, duration float64, seed uint64, proc int) {
	t := NewTandem(TandemOptions{Classes: Fig14Classes, Proc: proc})
	r := rng.New(seed)

	var measured [4]*network.Session

	// The ten a-j (five-hop) sessions: the first four are the measured
	// ones — class 1 without and with jitter control, then class 2
	// without and with. The fifth-hop class-1 quota (5 sessions) is
	// completed by one more unmeasured class-1 session; the remaining
	// five a-j sessions are class 2.
	fiveHopClasses := []struct {
		class int
		ctrl  bool
	}{
		{1, false}, {1, true}, {2, false}, {2, true},
		{1, false}, {1, false}, {1, false},
		{2, false}, {2, false}, {2, false},
	}
	for i, fc := range fiveHopClasses {
		def := SessionDef{
			Entrance: 1, Exit: 5, Rate: VoiceRate,
			JitterCtrl: fc.ctrl, Class: fc.class,
			Src: NewOnOff(aOff, r.Split()),
			B0:  CellBits, // ON-OFF at its reserved rate: D_ref_max = L/r
		}
		s, b := t.Establish(def)
		if i < 4 {
			measured[i] = s
			// Bounds are sweep-independent; the first point fills them.
			if pi == 0 {
				cs := res.Sessions[i]
				cs.DPerNode = b.Assignments[0].DMax
				cs.DelayBound = b.DelayBound
				cs.JitterBound = b.JitterBound
			}
		}
	}
	// The rest of the MIX configuration. The five class-1 four-hop
	// sessions are on route a-i; everything else is class 2.
	for _, mr := range MixRoutes {
		if mr.Entrance == 1 && mr.Exit == 5 {
			continue // already placed above
		}
		for i := 0; i < mr.Count; i++ {
			class := 2
			if mr.Entrance == 1 && mr.Exit == 4 && i < 5 {
				class = 1 // five four-hop sessions in class 1
			}
			t.Establish(SessionDef{
				Entrance: mr.Entrance, Exit: mr.Exit, Rate: VoiceRate,
				Class: class, Src: NewOnOff(aOff, r.Split()),
			})
		}
	}
	for _, s := range t.Net.Sessions() {
		s.Start(0, duration)
	}
	t.Sim.Run(duration)

	for i, s := range measured {
		res.Sessions[i].Rows[pi] = ClassRow{
			AOff:     aOff,
			MaxDelay: s.Delays.Max(),
			Jitter:   s.Delays.Jitter(),
			Packets:  s.Delays.Count(),
		}
	}
}

// Format renders the four measured sessions' sweeps.
func (r *Fig14Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 14-17: MIX ON-OFF sweep, admission control procedure %d, two classes, %.0f s runs\n", r.Proc, r.Duration)
	for _, cs := range r.Sessions {
		ctrl := "without"
		if cs.JitterCtrl {
			ctrl = "with"
		}
		fmt.Fprintf(&b, "class %d, %s jitter control (d=%.2f ms, delay bound %.2f ms, jitter bound %.2f ms)\n",
			cs.Class, ctrl, cs.DPerNode*1e3, cs.DelayBound*1e3, cs.JitterBound*1e3)
		fmt.Fprintf(&b, "%12s %14s %12s %8s\n", "aOFF(ms)", "maxDelay(ms)", "jitter(ms)", "pkts")
		for _, row := range cs.Rows {
			fmt.Fprintf(&b, "%12.1f %14.2f %12.2f %8d\n",
				row.AOff*1e3, row.MaxDelay*1e3, row.Jitter*1e3, row.Packets)
		}
	}
	return b.String()
}
