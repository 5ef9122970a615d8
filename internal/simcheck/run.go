package simcheck

import (
	"math"

	"leaveintime/internal/admission"
	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/sched"
	"leaveintime/internal/system"
)

// seqDelay is one delivered packet's end-to-end delay, for the
// differential LiT ≡ VirtualClock comparison.
type seqDelay struct {
	Seq   int64
	Delay float64
}

// probeResult is one hop's buffer observation for one session.
type probeResult struct {
	Port    string
	MaxBits float64
	Dropped int64
	Bound   float64 // the paper's buffer bound at this hop, bits
	Limited bool    // true when the buffer was capped at Bound
}

// sessResult is everything the battery checks about one session in one
// run.
type sessResult struct {
	Def        *config.Session
	Hops       int
	Emitted    int64
	Delivered  int64
	Dropped    int64 // buffer-limit drops along the route
	MaxDelay   float64
	Jitter     float64
	DelayBound float64 // eq. 12 with D_ref_max = b0/rate; 0 when no b0 is declared
	JitterBnd  float64 // ineq. 17 or its no-control form
	MinLinkCap float64
	Probes     []probeResult
	Delays     []seqDelay // filled only when opts.collectDelays
}

// runResult is one discipline's complete run over the scenario.
type runResult struct {
	Name       string
	Sessions   []sessResult
	Pool       network.PoolStats
	Reg        *metrics.Registry
	Counts     *traceCounts
	Violations []Violation
	// Servers are the run's servers, kept so the battery can demand that
	// every admission controller is empty after the final teardown.
	Servers []*system.Server
	// Tripped is the watchdog's trip reason; non-empty means the run was
	// cut short and only partial telemetry is meaningful.
	Tripped string
}

type runOpts struct {
	limits        bool // cap buffers at the bound for LimitBuffers sessions
	probes        bool // track per-hop occupancy
	collectDelays bool
	// wd arms the run's watchdog budgets; a tripped run reports a
	// "watchdog" violation and skips drain-dependent checks.
	wd event.Watchdog
}

// traceCounts tallies trace events per port so the battery can demand
// metrics/trace/probe agreement. Drop events are split by cause: an
// empty cause is a buffer-limit drop, "fault"/"purge"/"purged" are
// packet losses injected by the chaos layer (including the late
// arrival of a purged session's packet), and any other cause is a
// lost signaling message (which carries no packet).
type traceCounts struct {
	sc        *Case
	Arrivals  map[string]int64
	Transmits map[string]int64
	Drops     map[string]int64 // every Drop event, any cause
	// FaultDrops and SigDrops are per-port partitions of Drops;
	// SessDrops counts per-session packet losses (buffer, fault and
	// purge causes — signaling losses excluded) by document id, the
	// per-session drop term of the conservation check.
	FaultDrops map[string]int64
	SigDrops   map[string]int64
	SessDrops  map[int]int64
}

func newTraceCounts(sc *Case) *traceCounts {
	return &traceCounts{
		sc:         sc,
		Arrivals:   make(map[string]int64),
		Transmits:  make(map[string]int64),
		Drops:      make(map[string]int64),
		FaultDrops: make(map[string]int64),
		SigDrops:   make(map[string]int64),
		SessDrops:  make(map[int]int64),
	}
}

// Trace implements trace.Tracer.
func (t *traceCounts) Trace(e traceEvent) {
	switch e.Kind {
	case traceArrive:
		t.Arrivals[e.Port]++
	case traceTransmitEnd:
		t.Transmits[e.Port]++
	case traceDrop:
		t.Drops[e.Port]++
		switch e.Cause {
		case "":
			t.SessDrops[t.sc.docID(e.Session)]++
		case "fault", "purge", "purged":
			t.SessDrops[t.sc.docID(e.Session)]++
			t.FaultDrops[e.Port]++
		default:
			t.SigDrops[e.Port]++
		}
	}
}

// runScenario runs the case under one discipline on the runner litrun
// and litserve use (config.Run), with the harness's layers over it: the
// row's discipline under the checking decorator, the pool in debug
// mode, the trace counts, the probes and the watchdog. Emission stops
// at Duration and the network drains; then every reservation still
// held goes back (Run.Release), so the capacity-zero check sees the
// path mid-run releases take. Per-session counters sum over a churned
// session's incarnations. Violations detected online (by the checking
// decorator) are collected in the result; bound and cross-run checks
// happen in the battery.
func runScenario(sc *Case, row sched.Row, opts runOpts) (*runResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	doc := sc.Scenario
	if !opts.limits {
		doc = uncapped(doc)
	}
	res := &runResult{Name: row.Name, Reg: metrics.NewRegistry(), Counts: newTraceCounts(sc)}
	run, err := doc.PrepareRow(res.Reg, checkedRow(sc, row, &res.Violations))
	if err != nil {
		return nil, err
	}
	sys := run.System()
	sys.Sim.SetWatchdog(opts.wd)
	sys.Net.SetPoolDebug(true)
	sys.Net.Tracer = res.Counts
	res.Servers = sys.Servers()
	for _, srv := range res.Servers {
		srv.Port.Disc.(*checkedDisc).port = srv.Port.Name
	}
	conns := run.Conns()
	res.Sessions = make([]sessResult, len(conns))
	probes := make([][]*network.BufferProbe, len(conns))
	for i := range conns {
		c, s := &conns[i], &res.Sessions[i]
		*s = sessResult{Def: c.Def, Hops: len(c.Sess.Route), MinLinkCap: math.Inf(1),
			DelayBound: c.Bounds.DelayBound, JitterBnd: c.Bounds.JitterBound}
		for _, port := range c.Sess.Route {
			s.MinLinkCap = min(s.MinLinkCap, port.C)
		}
		for n, bound := range c.Bounds.BufferBoundBits { // none without b0
			if opts.probes {
				port, limited := c.Sess.Route[n], c.Def.LimitBuffers
				pr := port.TrackBuffer(c.Sess.ID)
				if limited {
					pr.Limit = bound
				}
				probes[i] = append(probes[i], pr)
				s.Probes = append(s.Probes, probeResult{Port: port.Name, Bound: bound, Limited: limited})
			}
		}
		if opts.collectDelays {
			c.Sess.SetOnDeliver(func(p *packet.Packet, delay float64) {
				s.Delays = append(s.Delays, seqDelay{Seq: p.Seq, Delay: delay})
			})
		}
	}

	run.Start()
	run.RunSlice(sc.Duration)
	run.Sim().RunAll()
	if run.Sim().Tripped() == "" {
		// All fault windows have closed by now, so no RELEASE can be
		// lost again.
		run.Release()
		run.Sim().RunAll()
	}
	if reason := run.Sim().Tripped(); reason != "" {
		res.Tripped = reason
		res.Reg.Arena().Inc(metrics.HFaultWatchdogTrips)
		res.Violations = append(res.Violations, Violation{Check: "watchdog", Discipline: row.Name, Detail: reason})
	}

	for i := range conns {
		c, s := &conns[i], &res.Sessions[i]
		s.Emitted = c.Emitted + c.Sess.Emitted
		s.Delivered = c.Delivered + c.Sess.Delivered
		if c.Sess.Delays.Count() > 0 {
			s.MaxDelay = c.Sess.Delays.Max()
			s.Jitter = c.Sess.Delays.Jitter()
		}
		for n, pr := range probes[i] {
			s.Probes[n].MaxBits = pr.MaxBits
			s.Probes[n].Dropped = pr.DroppedPackets
			s.Dropped += pr.DroppedPackets
		}
	}
	res.Pool = sys.Net.PoolStats()
	return res, nil
}

// uncapped is the document with no session's buffers capped.
func uncapped(doc *config.Scenario) *config.Scenario {
	out := *doc
	out.Sessions = append([]config.Session(nil), doc.Sessions...)
	for i := range out.Sessions {
		out.Sessions[i].LimitBuffers = false
	}
	return &out
}

// refusal reports why the case's network could not be built. Prepare
// stops at the first session the admission rules refuse, so replaying
// admission in document order names it; any other error is reported as
// it stands.
func refusal(sc *Case, row sched.Row, err error) Violation {
	if adm, aerr := sc.Controllers(); aerr == nil {
		for i := range sc.Sessions {
			def := &sc.Sessions[i]
			if _, rerr := establish(sc, adm, def, sc.hops(def)); rerr != nil {
				return Violation{Check: "admission-replay", Discipline: row.Name, Session: def.ID, Detail: rerr.Error()}
			}
		}
	}
	return Violation{Check: "build", Discipline: row.Name, Detail: err.Error()}
}

// admitted is a session's route after the admission replay: the servers
// it traverses and the grants and bounds admission determined.
type admitted struct {
	hops   []*config.Server
	bounds *admission.Bounds
}

// replayAdmission replays admission at every hop of the session's route
// (re-verifying what the generator admitted), producing the grants and
// the analytic bounds the class-aggregate and calculus batteries
// derive theirs from.
func replayAdmission(sc *Case, adm map[string]admission.Controller, def *config.Session) (*admitted, error) {
	hops := sc.hops(def)
	b, err := establish(sc, adm, def, hops)
	if err != nil {
		return nil, err
	}
	return &admitted{hops: hops, bounds: b}, nil
}

// faultedPorts returns the ports whose outgoing link the plan takes
// down at any point (directly or through a node outage).
func faultedPorts(sc *Case) map[string]bool {
	out := make(map[string]bool)
	if sc.Faults == nil {
		return out
	}
	for _, l := range sc.Faults.Links {
		out[l.Port] = true
	}
	for _, n := range sc.Faults.Nodes {
		for i := range sc.Servers {
			if sv := &sc.Servers[i]; sv.Node() == n.Node {
				out[sv.Name] = true
			}
		}
	}
	return out
}

// cleanSurvivors filters the run's sessions down to the ones whose
// service commitments must have survived the chaos: never churned, and
// routed only over ports the plan never took down. A stalled source
// does not exempt a session — its reservation was held throughout, so
// its bounds must keep holding (isolation under silence). Churn and
// faults elsewhere in the network must not be observable here: that is
// the graceful-degradation guarantee under test.
func cleanSurvivors(res *runResult, sc *Case) []sessResult {
	bad := faultedPorts(sc)
	var out []sessResult
	for _, sr := range res.Sessions {
		if sc.Faults.Churned(sr.Def.ID) {
			continue
		}
		touched := false
		for _, pr := range sr.Probes {
			if bad[pr.Port] {
				touched = true
				break
			}
		}
		if !touched {
			out = append(out, sr)
		}
	}
	return out
}
