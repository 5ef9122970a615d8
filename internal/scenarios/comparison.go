package scenarios

import (
	"fmt"
	"strings"

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
// the tagged session beside the bound its sched.Table row promises it.
func RunComparison(duration float64, seed uint64, aOff float64) *ComparisonResult {
	const frame = OnSpacing // t1Disc's frame, 13.25 ms: one tagged packet per frame
	// What the two sessions at a node declare to it: the tagged session
	// one cell per 13.25 ms and a local delay of as much, the node's
	// cross session a quarter of its mean spacing and 2.5 ms. The cross
	// budgets fail the EDD rows' schedulability test on purpose (a
	// Poisson session's peak utilisation at a quarter of its mean
	// spacing is 3.8 on its own): the coupling the paper's Section 4
	// discusses.
	tagPort := network.SessionPort{Session: 1, Rate: VoiceRate, LocalDelay: CellBits / VoiceRate, XMin: OnSpacing}
	crossPort := network.SessionPort{Rate: Fig8CrossRate, LocalDelay: 2.5e-3, XMin: Fig8CrossMean / 4}
	res := &ComparisonResult{Duration: duration, AOff: aOff}

	// The tagged session conforms to a token bucket of one cell at its
	// rate; each hop carries it and that hop's cross session.
	tag := sched.Flow{Session: 1, Rate: VoiceRate, B0: CellBits, LMin: CellBits, LMax: CellBits}
	route := make([]sched.Hop, NumNodes)
	for i := range route {
		cross := crossPort
		cross.Session = 2 + i
		route[i] = sched.Hop{C: T1Rate, Gamma: PropDelay, Ports: []network.SessionPort{tagPort, cross}}
	}
	for _, e := range []struct {
		label, row string
		jitterCtrl bool
	}{
		{"Leave-in-Time", "lit", false},
		{"Leave-in-Time+jitterctl", "lit", true},
		{"VirtualClock", "virtualclock", false},
		{"WFQ (PGPS)", "wfq", false},
		{"WF2Q", "wf2q", false},
		{"SCFQ", "scfq", false},
		{"FCFS", "fcfs", false},
		{"Stop-and-Go", "stopandgo", false},
		{"HRR", "hrr", false},
		{"Delay-EDD", "delayedd", false},
		{"Jitter-EDD", "jitteredd", false},
		{"RCSP (2 levels)", "rcsp", false},
	} {
		mk := t1Disc(e.row)
		if e.row == "rcsp" {
			mk = newRCSPByRate
		}
		s := runComparisonScenario(mk, e.jitterCtrl, duration, seed, aOff, tagPort, crossPort)
		p := sched.Lookup(e.row).Bound([]sched.Flow{tag}, [][]sched.Hop{route}, CellBits, frame)[0]
		res.Rows = append(res.Rows, ComparisonRow{
			Name:      e.label,
			MaxDelay:  s.Delays.Max(),
			MeanDelay: s.Delays.Mean(),
			Jitter:    s.Delays.Jitter(),
			Packets:   s.Delays.Count(),
			Bound:     p.Bound,
			BoundNote: p.Origin,
		})
	}
	return res
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
