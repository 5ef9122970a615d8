// Package lit is a library implementation of the Leave-in-Time service
// discipline for real-time communications in packet-switching networks
// (Figueira & Pasquale, ACM SIGCOMM 1995), together with the
// event-driven network simulator, baseline disciplines, admission
// control procedures, analytic bounds, and experiment harness needed to
// reproduce every figure of the paper.
//
// # Layers
//
// The package names what the repository's commands, examples and
// benchmark call, and the types those names hand their callers; the
// rest lives in the internal packages.
//
//   - The scheduling core: NewLeaveInTime (eqs. 6-11), with the exact
//     transmission queue or the approximate one of the paper's
//     Section 4 (deadlines binned to days of L_MAX/C on the same heap:
//     an accuracy ablation, not a faster queue), behind the Discipline
//     contract every baseline of internal/sched satisfies too.
//   - Admission control and service commitments: NewProcedure1/2
//     (delay classes and delay shifting) and Route (the eq. 12-17
//     bound calculators).
//   - The network substrate: NewSimulator, NewNetwork, ports, sessions
//     and traffic sources (OnOff, Poisson, Greedy, Video, Shaped).
//   - A high-level System builder for assembling networks with
//     admission control in a few lines (see examples/quickstart).
//   - RunFig7, the Figure 7 sweep the benchmark times. The paper's
//     Figures 7-17 and Section 4 comparisons all run from one table,
//     internal/scenarios.Experiments, which cmd/litsim loops over.
//
// # Quick start
//
//	sys, err := lit.NewSystem(lit.SystemConfig{LMax: 424})
//	a, _ := sys.AddServer("A", 1536e3, 1e-3)
//	b, _ := sys.AddServer("B", 1536e3, 1e-3)
//	sess, bounds, err := sys.Connect(lit.ConnectRequest{
//		Rate:  32e3,
//		Route: []*lit.Server{a, b},
//		Source: &lit.OnOff{T: 13.25e-3, Length: 424,
//			MeanOn: 352e-3, MeanOff: 650e-3, Rng: lit.NewRand(1)},
//	})
//	...
//	sys.Run(60) // simulate one minute
//
// All times are float64 seconds, lengths are bits, and rates are bits
// per second, matching the units of the paper.
package lit

import (
	"leaveintime/internal/admission"
	"leaveintime/internal/analytic"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
	"leaveintime/internal/stats"
	"leaveintime/internal/traffic"
)

// Simulation engine.
type (
	// Simulator is the deterministic discrete-event engine driving a
	// network.
	Simulator = event.Simulator
	// Event is a cancelable scheduled occurrence.
	Event = event.Event
)

// NewSimulator returns a simulator starting at time 0.
func NewSimulator() *Simulator { return event.New() }

// Randomness.
type (
	// Rand is the deterministic generator used by all stochastic
	// sources; fixed seeds give bit-reproducible runs.
	Rand = rng.Rand
)

// NewRand returns a generator with the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Network substrate.
type (
	// Network is a simulated packet-switching network.
	Network = network.Network
	// Port is a server node's outgoing link plus its scheduler — the
	// paper's "Leave-in-Time server" when equipped with NewLeaveInTime.
	Port = network.Port
	// Session is an established connection with end-to-end measurement.
	Session = network.Session
	// SessionPort is the per-session configuration handed to a
	// discipline at each node.
	SessionPort = network.SessionPort
	// Discipline is the scheduling contract every service discipline
	// implements.
	Discipline = network.Discipline
	// Packet is the unit of transmission.
	Packet = packet.Packet
	// BufferProbe samples per-session buffer occupancy at a port.
	BufferProbe = network.BufferProbe
)

// NewNetwork returns an empty network driven by sim, with network-wide
// maximum packet length lMax bits.
func NewNetwork(sim *Simulator, lMax float64) *Network { return network.New(sim, lMax) }

// The Leave-in-Time discipline.
type (
	// LeaveInTime is the paper's scheduler; create with NewLeaveInTime.
	LeaveInTime = core.LiT
	// LeaveInTimeConfig parametrizes a Leave-in-Time server.
	LeaveInTimeConfig = core.Config
)

// NewLeaveInTime returns a Leave-in-Time server for one port.
func NewLeaveInTime(cfg LeaveInTimeConfig) *LeaveInTime { return core.New(cfg) }

// Admission control and service commitments.
type (
	// SessionSpec is a session's declaration at establishment time.
	SessionSpec = admission.SessionSpec
	// Class is one delay class (R_k, sigma_k) of procedures 1 and 2.
	Class = admission.Class
	// Assignment is the d_{i,s} service parameter granted at one node.
	Assignment = admission.Assignment
	// AdmitOptions tunes an admission request (eps, per-packet rule).
	AdmitOptions = admission.Options
	// Controller is what guards one server, whichever procedure runs
	// behind it: Admit, Remove, TotalRate.
	Controller = admission.Controller
	// Procedure1 implements admission control procedure 1.
	Procedure1 = admission.Procedure1
	// Procedure2 implements admission control procedure 2 (on the same
	// class-based controller as procedure 1).
	Procedure2 = admission.Procedure2
	// Hop is one node of a Route from the session's point of view.
	Hop = admission.Hop
	// Route computes the paper's service commitments (eqs. 12-17).
	Route = admission.Route
	// RejectError is what a refusal by procedure 1 or 2 unwraps to with
	// errors.As: the rule and class that ran out, and what was needed
	// against what the class has.
	RejectError = admission.RejectError
)

// ErrRejected is wrapped by every admission failure.
var ErrRejected = admission.ErrRejected

// NewProcedure1 returns an admission-procedure-1 controller for a link
// of capacity c with the given delay classes (R_P must equal c).
func NewProcedure1(c float64, classes []Class) (*Procedure1, error) {
	return admission.NewProcedure1(c, classes)
}

// NewProcedure2 returns an admission-procedure-2 controller.
func NewProcedure2(c float64, classes []Class) (*Procedure2, error) {
	return admission.NewProcedure2(c, classes)
}

// Analytic machinery.
type (
	// MD1 is the M/D/1 queue used for the analytical bounds of
	// Figures 9-11.
	MD1 = analytic.MD1
	// TokenBucket is the (r, b0) filter of Section 2.
	TokenBucket = analytic.TokenBucket
)

// Traffic sources.
type (
	// Source generates a session's packet stream.
	Source = traffic.Source
	// OnOff is the paper's two-state Markov-modulated voice model.
	OnOff = traffic.OnOff
	// Poisson emits packets with exponential interarrivals.
	Poisson = traffic.Poisson
	// Greedy keeps the reference server continuously busy.
	Greedy = traffic.Greedy
	// Shaped wraps a source with a token-bucket shaper.
	Shaped = traffic.Shaped
	// Video is an MPEG-like frame-structured source (I/P/B pattern).
	Video = traffic.Video
)

// NewShaped returns src shaped to conform to a (rate, b0) token bucket.
func NewShaped(src Source, rate, b0 float64) *Shaped { return traffic.NewShaped(src, rate, b0) }

// Measurement.
type (
	// Tracker accumulates streaming min/max/mean/jitter.
	Tracker = stats.Tracker
	// Histogram is a fixed-bin histogram with CCDF and tail queries.
	Histogram = stats.Histogram
	// Discrete is a distribution over small integers (buffer packets).
	Discrete = stats.Discrete
	// CCDFPoint is one point of an empirical tail distribution.
	CCDFPoint = stats.CCDFPoint
	// Utilization measures a link's busy fraction.
	Utilization = stats.Utilization
)
