package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/traffic"
)

// ComparisonRow is one discipline's measured behavior for the tagged
// session, with the discipline's own analytic delay bound where one
// exists for this scenario.
type ComparisonRow struct {
	Name      string
	MaxDelay  float64
	MeanDelay float64
	Jitter    float64
	Packets   int64
	// Bound is the discipline's end-to-end delay bound for the tagged
	// session (0 when the discipline offers none, e.g. FCFS without a
	// burstiness characterization of the cross traffic).
	Bound float64
	// BoundNote names the bound's origin.
	BoundNote string
}

// ComparisonResult is the Section 4 comparison run live: the same CROSS
// scenario under every discipline in the repository.
type ComparisonResult struct {
	Duration float64
	AOff     float64
	Rows     []ComparisonRow
}

// RunComparison runs the paper's CROSS scenario (five-hop 32 kbit/s
// ON-OFF session against 1472 kbit/s Poisson cross traffic per hop)
// under each discipline with identical traffic (same seeds), measuring
// the tagged session and computing each discipline's own bound.
func RunComparison(duration float64, seed uint64, aOff float64) *ComparisonResult {
	const (
		tagRate = VoiceRate
		frame   = OnSpacing // t1Disc's frame, 13.25 ms: one tagged packet per frame
	)
	// What the two sessions at a node declare to it: the tagged session
	// one cell per 13.25 ms and a local delay of as much, the node's
	// cross session a quarter of its mean spacing and 2.5 ms.
	tagPort := network.SessionPort{LocalDelay: CellBits / tagRate, XMin: OnSpacing}
	crossPort := network.SessionPort{LocalDelay: 2.5e-3, XMin: Fig8CrossMean / 4}
	res := &ComparisonResult{Duration: duration, AOff: aOff}

	// Bounds for the tagged session. It conforms to a token bucket
	// (r, one cell), so D_ref_max = L/r = 13.25 ms.
	dRef := CellBits / tagRate
	litRoute := fig6RouteForRate(tagRate, NumNodes)
	litBound := litRoute.DelayBound(dRef)
	// Stop-and-Go: alpha*H*T + T with alpha in [1,2): worst case
	// 2*H*T (+ propagation, excluded consistently below for all).
	sgBound := 2*float64(NumNodes)*frame + float64(NumNodes)*PropDelay
	// HRR offers Stop-and-Go's bound.
	hrrBound := sgBound
	// Delay-EDD's bound (sum of local delays) holds only when the
	// Ferrari-Verma schedulability test passes; this scenario's cross
	// budgets deliberately do not satisfy it (a Poisson session's peak
	// utilisation at a quarter of its mean spacing is 3.8 on its own),
	// so EDD variants get no bound here — the coupling the paper
	// discusses in Section 4.
	eddBnd, eddNote := eddBound(tagPort, crossPort)
	// Cruz FCFS bound needs the cross traffic's envelope; Poisson has
	// none, so FCFS gets no bound — exactly the paper's point. For
	// WFQ/PGPS the tagged bound equals eq. 15 = the LiT bound.
	type entry struct {
		name       string
		mk         func() network.Discipline
		jitterCtrl bool
		bound      float64
		note       string
	}
	entries := []entry{
		{"Leave-in-Time", t1Disc("lit"), false, litBound, "eq. 12"},
		{"Leave-in-Time+jitterctl", t1Disc("lit"), true, litBound, "eq. 12"},
		{"VirtualClock", t1Disc("virtualclock"), false, litBound, "eq. 12 (special case)"},
		{"WFQ (PGPS)", t1Disc("wfq"), false, litBound, "PGPS = eq. 15"},
		{"WF2Q", t1Disc("wf2q"), false, litBound, "PGPS = eq. 15"},
		{"SCFQ", t1Disc("scfq"), false, 0, ""},
		{"FCFS", t1Disc("fcfs"), false, 0, "no cross envelope"},
		{"Stop-and-Go", t1Disc("stopandgo"), false, sgBound, "2HT"},
		{"HRR", t1Disc("hrr"), false, hrrBound, "2HT"},
		{"Delay-EDD", t1Disc("delayedd"), false, eddBnd, eddNote},
		{"Jitter-EDD", t1Disc("jitteredd"), false, eddBnd, eddNote},
		{"RCSP (2 levels)", newRCSPByRate, false, 0, "level test not run"},
	}
	for _, e := range entries {
		tag := runComparisonScenario(e.mk, e.jitterCtrl, duration, seed, aOff, tagPort, crossPort)
		res.Rows = append(res.Rows, ComparisonRow{
			Name:      e.name,
			MaxDelay:  tag.Delays.Max(),
			MeanDelay: tag.Delays.Mean(),
			Jitter:    tag.Delays.Jitter(),
			Packets:   tag.Delays.Count(),
			Bound:     e.bound,
			BoundNote: e.note,
		})
	}
	return res
}

// fig6RouteForRate builds the eq. 12 route for a session of the given
// rate over n Figure 6 hops with d = L/r.
func fig6RouteForRate(rate float64, n int) admission.Route {
	hops := make([]admission.Hop, n)
	for i := range hops {
		hops[i] = admission.Hop{C: T1Rate, Gamma: PropDelay, DMax: CellBits / rate}
	}
	return admission.Route{Hops: hops, LMax: CellBits}
}

// eddBound runs the Ferrari-Verma schedulability test on what one node
// of the comparison carries — the tagged session and that node's cross
// session, one cell each — and returns the tagged session's Delay-EDD
// bound with its origin: the local delays and propagation summed over
// the route when the set is schedulable, no bound when it is refused.
func eddBound(tag, cross network.SessionPort) (bound float64, note string) {
	adm := sched.NewEDDAdmission(T1Rate, CellBits)
	if adm.Admit(1, tag.XMin, CellBits, tag.LocalDelay) != nil ||
		adm.Admit(2, cross.XMin, CellBits, cross.LocalDelay) != nil {
		return 0, "schedulability test fails"
	}
	return float64(NumNodes) * (tag.LocalDelay + PropDelay), "sum of local delays"
}

func runComparisonScenario(mk func() network.Discipline, jitterCtrl bool, duration float64, seed uint64, aOff float64, tagPort, crossPort network.SessionPort) *network.Session {
	net, ports := rawTandem(mk)
	r := rng.New(seed)
	tagCfg := make([]network.SessionPort, NumNodes)
	for i := range tagCfg {
		tagCfg[i] = tagPort
	}
	tag := net.AddSession(1, VoiceRate, jitterCtrl, ports, tagCfg,
		NewOnOff(aOff, r.Split()))
	for i := range ports {
		net.AddSession(2+i, Fig8CrossRate, false, ports[i:i+1], []network.SessionPort{crossPort},
			&traffic.Poisson{Mean: Fig8CrossMean, Length: CellBits, Rng: r.Split()})
	}
	for _, s := range net.Sessions() {
		s.Start(0, duration)
	}
	net.Sim.Run(duration)
	return tag
}

// newRCSPByRate is the table's RCSP with voice-like sessions at level 1.
func newRCSPByRate() network.Discipline { return rcspByRate{t1Disc("rcsp")().(*sched.RCSP)} }

type rcspByRate struct{ *sched.RCSP }

func (r rcspByRate) AddSession(cfg network.SessionPort) {
	level := 2
	if cfg.Rate <= 64e3 {
		level = 1
	}
	r.AddSessionLevel(cfg, level)
}

// Format renders the comparison table.
func (r *ComparisonResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CROSS scenario under every discipline (aOFF=%.3gs, %.0f s run):\n\n", r.AOff, r.Duration)
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %8s %12s  %s\n",
		"discipline", "max(ms)", "mean(ms)", "jitter(ms)", "pkts", "bound(ms)", "bound origin")
	for _, row := range r.Rows {
		bound := "-"
		if row.Bound > 0 {
			bound = fmt.Sprintf("%.2f", row.Bound*1e3)
		}
		fmt.Fprintf(&b, "%-24s %10.2f %10.2f %10.2f %8d %12s  %s\n",
			row.Name, row.MaxDelay*1e3, row.MeanDelay*1e3, row.Jitter*1e3,
			row.Packets, bound, row.BoundNote)
	}
	return b.String()
}
