// Package scenarios reconstructs the simulated experiments of Section 3
// of the Leave-in-Time paper: the five-node tandem topology of Figure 6,
// the MIX and CROSS traffic configurations, and one runner per figure
// (7 through 17) plus the Section 4 analytic comparisons. Each runner
// returns a result value whose Format method prints the same series the
// paper plots. Experiments is the table cmd/litsim runs: one row per
// experiment, with its default duration and the views it prints.
package scenarios

import (
	"fmt"

	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/traffic"
)

// Paper-wide constants (Section 3).
const (
	// T1Rate is the capacity of every link in Figure 6: 1536 kbit/s.
	T1Rate = 1536e3
	// PropDelay is the 1 ms propagation delay of every link.
	PropDelay = 1e-3
	// CellBits is the packet length of every traffic source: 424 bits,
	// the length of an ATM cell. It is also L_MAX for the network.
	CellBits = 424
	// VoiceRate is the 32 kbit/s reserved rate of the ON-OFF and
	// Deterministic sessions.
	VoiceRate = 32e3
	// OnMean is a_ON = 352 ms, the mean ON duration of ON-OFF sources.
	OnMean = 0.352
	// OnSpacing is T = 13.25 ms, the packet spacing in the ON state
	// (424 bits / 13.25 ms = 32 kbit/s).
	OnSpacing = 0.01325
	// DetInterval is a_D = 13.25 ms, the constant interarrival of
	// Deterministic sources.
	DetInterval = 0.01325
	// NumNodes is the tandem length of Figure 6.
	NumNodes = 5
)

// AOffValues are the seven mean OFF durations swept in Figures 7 and
// 14-17 (seconds), from near-deterministic to standard voice.
var AOffValues = []float64{0.0065, 0.0185, 0.0391, 0.0880, 0.1509, 0.2880, 0.650}

// fig6 is the Figure 6 network as a scenario document: servers node1 to
// node5, each a T1 link with a 1 ms propagation delay, and one cell as
// L_MAX. It has no sessions yet; addSession appends them.
func fig6(duration float64, seed uint64) *config.Scenario {
	sc := &config.Scenario{LMax: CellBits, Duration: duration, Seed: seed}
	for n := 1; n <= NumNodes; n++ {
		sc.Servers = append(sc.Servers, config.Server{Name: fmt.Sprintf("node%d", n), Capacity: T1Rate, Gamma: PropDelay})
	}
	return sc
}

// addSession appends a session through servers entrance..exit, 1-based
// (route a-j is (1, 5), route c-h is (3, 3)), and returns it for the
// caller to finish before the next append.
func addSession(sc *config.Scenario, entrance, exit int, rate float64, src config.Source) *config.Session {
	route := make([]string, 0, exit-entrance+1)
	for _, sv := range sc.Servers[entrance-1 : exit] {
		route = append(route, sv.Name)
	}
	sc.Sessions = append(sc.Sessions, config.Session{Rate: rate, Route: route, Source: src})
	return &sc.Sessions[len(sc.Sessions)-1]
}

// onOff is the paper's ON-OFF source with mean OFF period aOff.
func onOff(aOff float64) config.Source {
	return config.Source{Kind: "onoff", T: OnSpacing, Length: CellBits, MeanOn: OnMean, MeanOff: aOff}
}

// poisson is a Poisson source of one-cell packets with mean
// interarrival mean.
func poisson(mean float64) config.Source {
	return config.Source{Kind: "poisson", Mean: mean, Length: CellBits}
}

// prepare builds a figure's document. The documents are fixed by the
// paper and TestFigureDocumentsParse holds each to Parse's checks, so a
// refusal is a bug.
func prepare(sc *config.Scenario, reg *metrics.Registry) *config.Run {
	run, err := sc.Prepare(reg)
	if err != nil {
		panic(err)
	}
	return run
}

// rawTandem builds Figure 6's five T1 ports on a bare network, each
// serving with a discipline mk makes. The comparison and the UPS replay
// put baseline disciplines on the tandem with hand-set SessionPorts and
// run no admission, so they take raw ports instead of a System.
func rawTandem(mk func() network.Discipline) (*network.Network, []*network.Port) {
	net := network.New(event.New(), CellBits)
	ports := make([]*network.Port, NumNodes)
	for i := range ports {
		ports[i] = net.NewPort(fmt.Sprintf("node%d", i+1), T1Rate, PropDelay, mk())
	}
	return net, ports
}

// t1Disc makes the named sched.Table discipline for a Figure 6 port: a
// T1 link, one cell as L_MAX and, for the framing disciplines, a frame
// of one voice packet spacing (13.25 ms).
func t1Disc(name string) func() network.Discipline {
	row := sched.Lookup(name)
	return func() network.Discipline { return row.New(T1Rate, CellBits, OnSpacing) }
}

// NewOnOff builds a paper ON-OFF source with the given mean OFF time
// and its own random stream.
func NewOnOff(aOff float64, r *rng.Rand) *traffic.OnOff {
	return &traffic.OnOff{
		T:       OnSpacing,
		Length:  CellBits,
		MeanOn:  OnMean,
		MeanOff: aOff,
		Rng:     r,
	}
}

// MixDef is one route entry of the MIX traffic configuration.
type MixDef struct {
	Entrance, Exit, Count int
}

// MixRoutes is the MIX traffic configuration of Section 3: 116 sessions
// booking every link at exactly 48 x 32 kbit/s = 1536 kbit/s.
//
// (The paper's prose says the counts total "8 four-hop sessions", but
// the per-route counts it gives — 6 sessions in each of a-i and b-j —
// total 12 four-hop sessions; the per-route counts are the consistent
// ones, since they book every link at exactly its capacity, so we use
// them.)
var MixRoutes = []MixDef{
	{1, 5, 10}, // a-j, five-hop
	{2, 2, 10}, // b-g
	{3, 3, 10}, // c-h
	{4, 4, 10}, // d-i
	{1, 1, 16}, // a-f
	{5, 5, 16}, // e-j
	{1, 3, 8},  // a-h
	{3, 5, 8},  // c-j
	{1, 2, 8},  // a-g
	{4, 5, 8},  // d-j
	{1, 4, 6},  // a-i
	{2, 5, 6},  // b-j
}

// mixDoc is the MIX configuration on the Figure 6 tandem, as Figures 7
// and 14-17 run it: the sessions of MixRoutes in order, so the ten
// five-hop a-j sessions come first, each a 32 kbit/s ON-OFF source of
// mean OFF period aOff. An ON-OFF source never exceeds its reserved
// rate, so every session declares the token bucket (r, one packet):
// D_ref_max = L/r = T.
func mixDoc(aOff, duration float64, seed uint64) *config.Scenario {
	sc := fig6(duration, seed)
	for _, mr := range MixRoutes {
		for range mr.Count {
			addSession(sc, mr.Entrance, mr.Exit, VoiceRate, onOff(aOff)).B0 = CellBits
		}
	}
	return sc
}

// CrossRoutes lists the one-hop routes of the CROSS configuration
// (a-f, b-g, c-h, d-i, e-j); the five-hop route a-j carries the
// measured sessions.
var CrossRoutes = []MixDef{
	{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 4, 1}, {5, 5, 1},
}

// crossDoc is the CROSS configuration of Figures 8, 12 and 13 on the
// Figure 6 tandem: two five-hop ON-OFF sessions (a_OFF = 650 ms)
// declaring (r, one packet), the first without and the second with
// delay jitter control, then one 1472 kbit/s Poisson session of cross
// traffic per one-hop route.
func crossDoc(duration float64, seed uint64) *config.Scenario {
	sc := fig6(duration, seed)
	addSession(sc, 1, NumNodes, VoiceRate, onOff(Fig8OnOffAOff)).B0 = CellBits
	ctrl := addSession(sc, 1, NumNodes, VoiceRate, onOff(Fig8OnOffAOff))
	ctrl.B0, ctrl.JitterControl = CellBits, true
	for _, cr := range CrossRoutes {
		addSession(sc, cr.Entrance, cr.Exit, Fig8CrossRate, poisson(Fig8CrossMean))
	}
	return sc
}
