// Package lit is a library implementation of the Leave-in-Time service
// discipline for real-time communications in packet-switching networks
// (Figueira & Pasquale, ACM SIGCOMM 1995), together with the
// event-driven network simulator, baseline disciplines, admission
// control procedures, analytic bounds, and experiment harness needed to
// reproduce every figure of the paper.
//
// # Layers
//
//   - The scheduling core: NewLeaveInTime (eqs. 6-11), with the exact
//     transmission queue or the approximate one of the paper's
//     Section 4 (deadlines binned to days of L_MAX/C on the same heap:
//     an accuracy ablation, not a faster queue), plus baselines
//     NewVirtualClock, NewFCFS, NewWFQ, NewStopAndGo, NewDelayEDD and
//     NewJitterEDD, all satisfying the same Discipline contract.
//   - Admission control and service commitments: NewProcedure1/2/3
//     (delay classes and delay shifting) and Route (the eq. 12-17
//     bound calculators).
//   - The network substrate: NewSimulator, NewNetwork, ports, sessions
//     and traffic sources (OnOff, Poisson, Deterministic, Shaped...).
//   - A high-level System builder for assembling networks with
//     admission control in a few lines (see examples/quickstart).
//   - Experiment runners reproducing the paper's Figures 7-17 and the
//     Section 4 comparisons (RunFig7 ... RunSection4StopAndGo).
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
	"leaveintime/internal/sched"
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

// Baseline disciplines (Section 4 comparisons).
type (
	// FCFS is first-come-first-served.
	FCFS = sched.FCFS
	// VirtualClock is L. Zhang's VirtualClock (eq. 2); identical to
	// Leave-in-Time under AC procedure 1 with one class and no jitter
	// control.
	VirtualClock = sched.VirtualClock
	// WFQ is Weighted Fair Queueing / PGPS with exact GPS virtual time.
	WFQ = sched.WFQ
	// WF2Q is worst-case fair WFQ (Bennett & Zhang 1996).
	WF2Q = sched.WF2Q
	// EDDAdmission is the Ferrari-Verma schedulability test guarding
	// Delay-EDD/Jitter-EDD servers.
	EDDAdmission = sched.EDDAdmission
	// StopAndGo is Golestani's framing discipline.
	StopAndGo = sched.StopAndGo
	// DelayEDD is Ferrari & Verma's earliest-due-date discipline.
	DelayEDD = sched.DelayEDD
	// JitterEDD is Delay-EDD with per-hop delay regulators.
	JitterEDD = sched.JitterEDD
	// RCSP is Zhang & Ferrari's Rate-Controlled Static-Priority
	// queueing.
	RCSP = sched.RCSP
	// HRR is Kalmanek, Kanakia & Keshav's Hierarchical Round Robin.
	HRR = sched.HRR
	// SCFQ is Golestani's Self-Clocked Fair Queueing.
	SCFQ = sched.SCFQ
)

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return sched.NewFCFS() }

// NewVirtualClock returns an empty VirtualClock server.
func NewVirtualClock() *VirtualClock { return sched.NewVirtualClock() }

// NewWFQ returns a WFQ server for a link of the given capacity (bits/s).
func NewWFQ(capacity float64) *WFQ { return sched.NewWFQ(capacity) }

// NewWF2Q returns a WF2Q server for a link of the given capacity.
func NewWF2Q(capacity float64) *WF2Q { return sched.NewWF2Q(capacity) }

// NewEDDAdmission returns a Delay-EDD schedulability controller for a
// link of capacity c and network maximum packet lMaxNet bits.
func NewEDDAdmission(c, lMaxNet float64) *EDDAdmission { return sched.NewEDDAdmission(c, lMaxNet) }

// NewStopAndGo returns a Stop-and-Go server with frame length t seconds.
func NewStopAndGo(t float64) *StopAndGo { return sched.NewStopAndGo(t) }

// NewDelayEDD returns an empty Delay-EDD server.
func NewDelayEDD() *DelayEDD { return sched.NewDelayEDD() }

// NewJitterEDD returns an empty Jitter-EDD server.
func NewJitterEDD() *JitterEDD { return sched.NewJitterEDD() }

// NewRCSP returns an RCSP server with the given number of static
// priority levels (level 1 served first).
func NewRCSP(levels int) *RCSP { return sched.NewRCSP(levels) }

// NewHRR returns a Hierarchical Round Robin server with slot size lMax
// bits and one frame time per level, fastest first.
func NewHRR(lMax float64, frames ...float64) *HRR { return sched.NewHRR(lMax, frames...) }

// NewSCFQ returns an empty Self-Clocked Fair Queueing server.
func NewSCFQ() *SCFQ { return sched.NewSCFQ() }

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
	// Procedure3 implements admission control procedure 3 (ineq. 19);
	// a session's fixed d travels in AdmitOptions.D.
	Procedure3 = admission.Procedure3
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

// NewProcedure3 returns an admission-procedure-3 controller.
func NewProcedure3(c float64) (*Procedure3, error) { return admission.NewProcedure3(c) }

// Analytic machinery.
type (
	// MD1 is the M/D/1 queue used for the analytical bounds of
	// Figures 9-11.
	MD1 = analytic.MD1
	// RefServer is the fixed-rate reference server recursion (eq. 1).
	RefServer = analytic.RefServer
	// TokenBucket is the (r, b0) filter of Section 2.
	TokenBucket = analytic.TokenBucket
	// NDD1 is the exact slotted N*D/D/1 queue (the Figure 11 cross
	// traffic superposition).
	NDD1 = analytic.NDD1
	// LindleyMD1 is the grid-based M/D/1 solver cross-validating MD1.
	LindleyMD1 = analytic.LindleyMD1
)

// ErlangB returns the Erlang-B blocking probability for n circuits
// offered a Erlangs — the connection-level behavior of Leave-in-Time
// admission on a single link of n equal-rate circuits.
func ErlangB(n int, a float64) float64 { return analytic.ErlangB(n, a) }

// ErlangC returns the Erlang-C queueing probability for n servers
// offered a Erlangs.
func ErlangC(n int, a float64) float64 { return analytic.ErlangC(n, a) }

// MG1MeanWait returns the Pollaczek-Khinchine mean waiting time for an
// M/G/1 queue (generalizes the reference-server analysis to variable
// packet lengths).
func MG1MeanWait(lambda, meanS, meanS2 float64) float64 {
	return analytic.MG1MeanWait(lambda, meanS, meanS2)
}

// SolveLindleyMD1 iterates the Lindley recursion to the stationary
// M/D/1 waiting-time distribution on a grid; an independent numerical
// method cross-checking MD1's series.
func SolveLindleyMD1(lambda, service, xMax, step float64) *LindleyMD1 {
	return analytic.SolveLindleyMD1(lambda, service, xMax, step)
}

// NewRefServer returns a reference server of the given rate (bits/s).
func NewRefServer(rate float64) *RefServer { return analytic.NewRefServer(rate) }

// NewTokenBucket returns a full (r, b0) bucket.
func NewTokenBucket(r, b0 float64) *TokenBucket { return analytic.NewTokenBucket(r, b0) }

// Traffic sources.
type (
	// Source generates a session's packet stream.
	Source = traffic.Source
	// OnOff is the paper's two-state Markov-modulated voice model.
	OnOff = traffic.OnOff
	// Poisson emits packets with exponential interarrivals.
	Poisson = traffic.Poisson
	// Deterministic emits packets at a fixed interval.
	Deterministic = traffic.Deterministic
	// Greedy keeps the reference server continuously busy.
	Greedy = traffic.Greedy
	// Trace replays an explicit schedule.
	Trace = traffic.Trace
	// Shaped wraps a source with a token-bucket shaper.
	Shaped = traffic.Shaped
	// VariableLength rewrites packet lengths of a wrapped source.
	VariableLength = traffic.VariableLength
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

// NewHistogram returns a histogram with nbins bins of width binWidth.
func NewHistogram(binWidth float64, nbins int) *Histogram {
	return stats.NewHistogram(binWidth, nbins)
}
