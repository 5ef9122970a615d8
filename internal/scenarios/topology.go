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

	"leaveintime/internal/admission"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/system"
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

// Tandem is the instantiated Figure 6 network: five Leave-in-Time
// servers in tandem on one System. Ports[n] is the outgoing link of
// server node n+1.
type Tandem struct {
	Sim   *event.Simulator
	Net   *network.Network
	Ports []*network.Port

	sys *system.System
}

// TandemOptions tune the construction of the tandem.
type TandemOptions struct {
	// Classes, when non-nil, guards every node with these classes under
	// procedure Proc (1 or 2); otherwise every node runs procedure 1
	// with one class, the VirtualClock special case d = L/r.
	Classes []admission.Class
	Proc    int
}

// NewTandem builds the Figure 6 network with a Leave-in-Time server on
// every link.
func NewTandem(opt TandemOptions) *Tandem {
	sys, err := system.New(system.Config{LMax: CellBits, Classes: opt.Classes, Proc: opt.Proc})
	if err != nil {
		panic(err)
	}
	t := &Tandem{Sim: sys.Sim, Net: sys.Net, sys: sys}
	for n := 1; n <= NumNodes; n++ {
		srv, err := sys.AddServer(fmt.Sprintf("node%d", n), T1Rate, PropDelay)
		if err != nil {
			panic(err)
		}
		t.Ports = append(t.Ports, srv.Port)
	}
	return t
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

// Instrument attaches a telemetry registry to the tandem: the event
// engine, the packet pool, every port and scheduler, and the per-node
// admission controllers. Instrumented runs are bit-identical to bare
// ones (counters never perturb event ordering); concurrent sweep
// points must each use their own registry.
func (t *Tandem) Instrument(reg *metrics.Registry) { t.sys.AttachMetrics(reg) }

// SessionDef describes one session to establish on the tandem.
type SessionDef struct {
	// Entrance and Exit are 1-based node numbers: the session traverses
	// servers Entrance..Exit. Route a-j is (1, 5); route c-h is (3, 3).
	Entrance, Exit int
	Rate           float64
	JitterCtrl     bool
	// Class is the delay class for tandems built with admission
	// classes; ignored (treated as the single class) otherwise.
	Class int
	Src   traffic.Source
	// LMax/LMin default to CellBits when zero.
	LMax, LMin float64
	// B0 declares the source's token bucket (Rate, B0 bits); Establish
	// then returns the delay, jitter and buffer bounds filled in.
	B0 float64
}

// Establish admits and wires the session, returning the network session
// and its service commitments: the per-node assignments and, for a
// session that declares B0, the bounds the figures print.
func (t *Tandem) Establish(def SessionDef) (*network.Session, *system.Bounds) {
	if def.Entrance < 1 || def.Exit > NumNodes || def.Entrance > def.Exit {
		panic(fmt.Sprintf("scenarios: bad route %d-%d", def.Entrance, def.Exit))
	}
	s, b, err := t.sys.Connect(system.ConnectRequest{
		Rate:          def.Rate,
		Route:         t.sys.Servers()[def.Entrance-1 : def.Exit],
		Source:        def.Src,
		JitterControl: def.JitterCtrl,
		Class:         def.Class,
		LMax:          def.LMax,
		LMin:          def.LMin,
		B0:            def.B0,
	})
	if err != nil {
		panic(fmt.Sprintf("scenarios: %v", err))
	}
	return s, b
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

// CrossRoutes lists the one-hop routes of the CROSS configuration
// (a-f, b-g, c-h, d-i, e-j); the five-hop route a-j carries the
// measured sessions.
var CrossRoutes = []MixDef{
	{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 4, 1}, {5, 5, 1},
}
