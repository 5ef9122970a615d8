package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/config"
)

// Figures 14-17 parameters: admission control procedure 2 with two
// classes. Class 1 sessions get d = sigma_1 = 2.77 ms (rule 2.3 with
// R_0 = 0); class 2 sessions get d = L*R_1/(r*C) + sigma_2 = 18.8 ms.
var Fig14Classes = []config.Class{
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
	for i := range res.Sessions {
		fc := fig14FiveHop[i]
		res.Sessions[i] = &ClassSession{Class: fc.class, JitterCtrl: fc.ctrl, Rows: make([]ClassRow, len(AOffValues))}
	}
	forEachPoint(len(AOffValues), func(pi int) {
		runFig14Point(res, pi, AOffValues[pi], duration, seed, proc)
	})
	return res
}

// fig14FiveHop places the ten a-j (five-hop) sessions in classes. The
// first four are the measured ones: class 1 without and with jitter
// control, then class 2 without and with. Three more class-1 sessions
// complete the five-hop class-1 quota of five; the last three are
// class 2.
var fig14FiveHop = []struct {
	class int
	ctrl  bool
}{
	{1, false}, {1, true}, {2, false}, {2, true},
	{1, false}, {1, false}, {1, false},
	{2, false}, {2, false}, {2, false},
}

// fig14Doc is the MIX configuration under admission procedure proc
// with the two classes of Fig14Classes: the a-j sessions placed by
// fig14FiveHop; of the rest, the first five four-hop sessions on route
// a-i are class 1 and everything else is class 2.
func fig14Doc(aOff, duration float64, seed uint64, proc int) *config.Scenario {
	sc := mixDoc(aOff, duration, seed)
	sc.Proc, sc.Classes = proc, Fig14Classes
	aI := 0
	for i := range sc.Sessions {
		s := &sc.Sessions[i]
		switch {
		case i < len(fig14FiveHop):
			s.Class, s.JitterControl = fig14FiveHop[i].class, fig14FiveHop[i].ctrl
		case len(s.Route) == 4 && s.Route[0] == "node1" && aI < 5:
			s.Class = 1
			aI++
		default:
			s.Class = 2
		}
	}
	return sc
}

func runFig14Point(res *Fig14Result, pi int, aOff, duration float64, seed uint64, proc int) {
	run := prepare(fig14Doc(aOff, duration, seed, proc), nil)
	run.Start()
	run.RunSlice(duration)

	for i, c := range run.Conns()[:len(res.Sessions)] {
		cs := res.Sessions[i]
		// Bounds are sweep-independent; the first point fills them.
		if pi == 0 {
			cs.DPerNode = c.Bounds.Assignments[0].DMax
			cs.DelayBound = c.Bounds.DelayBound
			cs.JitterBound = c.Bounds.JitterBound
		}
		cs.Rows[pi] = ClassRow{
			AOff:     aOff,
			MaxDelay: c.Sess.Delays.Max(),
			Jitter:   c.Sess.Delays.Jitter(),
			Packets:  c.Sess.Delays.Count(),
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
