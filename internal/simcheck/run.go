package simcheck

import (
	"math"

	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/sched"
	"leaveintime/internal/system"
	"leaveintime/internal/trace"
)

// probeResult is one hop's buffer observation for one session.
type probeResult struct {
	Port    string
	MaxBits float64
	Dropped int64
	Bound   float64 // the row's buffer bound at this hop, bits; 0 if none
	Limited bool    // true when the buffer was capped at Bound
}

// sessResult is everything the battery checks about one session in one
// run.
type sessResult struct {
	Def       *config.Session
	Emitted   int64
	Delivered int64
	Dropped   int64 // buffer-limit drops along the route
	MaxDelay  float64
	Jitter    float64
	// Promise is what the run's row promises the session (its Bound,
	// asked once with every session of the run), read from Flow, the
	// session's bucket and lengths, and Route, each hop's link and the
	// ports its discipline was given when the run started.
	Promise    sched.Promise
	Flow       sched.Flow
	Route      []sched.Hop
	MinLinkCap float64
	Probes     []probeResult
	// Delays is filled only when opts.collectDelays: packet seq's
	// end-to-end delay at seq-1, NaN for a packet not delivered.
	Delays []float64
}

// runResult is one discipline's complete run over the scenario.
type runResult struct {
	Name string
	// Sessions are the document's, in its order, so the runs of a case
	// pair their sessions by index.
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
	// LMax and Frame are what every port's discipline was built with.
	LMax, Frame float64
}

type runOpts struct {
	limits bool // cap buffers at the bound for LimitBuffers sessions
	probes bool // track per-hop occupancy
	// collectDelays records every delivered packet's delay and, in the
	// trace counts, the ports where it waited: the recording a replay
	// takes its slack from.
	collectDelays bool
	// replay, when set, is the recorded run whose schedule this run
	// replays: each packet carries its recorded delay less its route's
	// propagation as initial slack (replaySlack).
	replay *runResult
	gps    bool // record each port's packets for checkGPS
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
	// waits, on a recording run, holds each packet's congestion points
	// by network session id and sequence number, and mostWaits the
	// largest count a packet reached.
	waits     [][]congestion
	mostWaits int
}

// congestion is one packet's count of congestion points so far: the
// ports where its transmission started after its last bit arrived,
// regulator holds included.
type congestion struct {
	arrived float64 // at the port it occupies
	points  int
}

// grown returns &(*s)[i], first growing *s with fill to reach it.
func grown[T any](s *[]T, i int64, fill T) *T {
	for int64(len(*s)) <= i {
		*s = append(*s, fill)
	}
	return &(*s)[i]
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
func (t *traceCounts) Trace(e trace.Event) {
	switch e.Kind {
	case trace.Arrive:
		t.Arrivals[e.Port]++
		if t.waits != nil {
			grown(&t.waits[e.Session-1], e.Seq-1, congestion{}).arrived = e.Time
		}
	case trace.TransmitStart:
		if t.waits != nil {
			if c := grown(&t.waits[e.Session-1], e.Seq-1, congestion{}); e.Time > c.arrived {
				c.points++
				t.mostWaits = max(t.mostWaits, c.points)
			}
		}
	case trace.TransmitEnd:
		t.Transmits[e.Port]++
	case trace.Drop:
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
	if opts.collectDelays {
		res.Counts.waits = make([][]congestion, len(sc.Sessions))
	}
	run, err := doc.PrepareRow(res.Reg, checkedRow(sc, row, &res.Violations, opts.gps))
	if err != nil {
		return nil, err
	}
	sys := run.System()
	sys.Sim.SetWatchdog(opts.wd)
	sys.Net.SetPoolDebug(true)
	sys.Net.Tracer = res.Counts
	res.Servers = sys.Servers()
	for _, srv := range res.Servers {
		disc := srv.Port.Disc.(*checkedDisc)
		disc.port = srv.Port.Name
		res.LMax, res.Frame = disc.lMax, disc.frame
	}
	conns := run.Conns()
	res.Sessions = make([]sessResult, len(conns))
	flows, routes := make([]sched.Flow, len(conns)), make([][]sched.Hop, len(conns))
	for i := range conns {
		c, s := &conns[i], &res.Sessions[i]
		req := c.Def.Request()
		*s = sessResult{Def: c.Def, MinLinkCap: math.Inf(1),
			Flow: sched.Flow{Session: c.Sess.ID, Rate: req.Rate, B0: req.B0, LMin: req.LMin, LMax: req.LMax}}
		for _, port := range c.Sess.Route {
			s.MinLinkCap = min(s.MinLinkCap, port.C)
			s.Route = append(s.Route, sched.Hop{C: port.C, Gamma: port.Gamma, Ports: port.Disc.(*checkedDisc).ports})
		}
		flows[i], routes[i] = s.Flow, s.Route
	}
	promises := row.Bound(flows, routes, res.LMax, res.Frame)
	probes := make([][]*network.BufferProbe, len(conns))
	for i := range conns {
		c, s := &conns[i], &res.Sessions[i]
		s.Promise = promises[i]
		if opts.probes {
			for n, port := range c.Sess.Route {
				pr, probe := port.TrackBuffer(c.Sess.ID), probeResult{Port: port.Name}
				if n < len(s.Promise.Buffer) {
					probe.Bound, probe.Limited = s.Promise.Buffer[n], c.Def.LimitBuffers
					if probe.Limited {
						pr.Limit = probe.Bound
					}
				}
				probes[i] = append(probes[i], pr)
				s.Probes = append(s.Probes, probe)
			}
		}
		if opts.replay != nil {
			c.Sess.SetInitialSlack(replaySlack(&opts.replay.Sessions[i]))
		}
		if opts.collectDelays {
			c.Sess.SetOnDeliver(func(p *packet.Packet, delay float64) {
				*grown(&s.Delays, p.Seq-1, math.NaN()) = delay
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
		s.Emitted, s.Delivered = c.Sess.Emitted, c.Sess.Delivered
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

// replaySlack is the initial slack of Universal Packet Scheduling's
// replay of a recorded session under LSTF: each packet's recorded delay
// less its route's propagation, so that a packet leaving every port by
// its due time is delivered no later than recorded. A packet the
// recording lacks carries none.
func replaySlack(rec *sessResult) func(seq int64, t float64) float64 {
	var prop float64
	for _, h := range rec.Route {
		prop += h.Gamma
	}
	return func(seq int64, _ float64) float64 {
		if d := delayAt(rec.Delays, int(seq-1)); !math.IsNaN(d) {
			return d - prop
		}
		return 0
	}
}

// delayAt is the recorded delay of the session's packet i+1, NaN if
// none was recorded.
func delayAt(delays []float64, i int) float64 {
	if i >= len(delays) {
		return math.NaN()
	}
	return delays[i]
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
// stops at the first session the admission rules refuse, so the
// shortest prefix of the document's sessions the runner will not build
// names it; any other error is reported as it stands.
func refusal(sc *Case, row sched.Row, err error) Violation {
	for i := range sc.Sessions {
		if _, perr := build(sc, sc.Sessions[:i+1]); perr != nil {
			return Violation{Check: "admission-replay", Discipline: row.Name, Session: sc.Sessions[i].ID, Detail: perr.Error()}
		}
	}
	return Violation{Check: "build", Discipline: row.Name, Detail: err.Error()}
}

// build prepares the case's document with sessions in place of its own
// and no fault plan: the runner's verdict on admitting them in that
// order, and the system it builds for them.
func build(sc *Case, sessions []config.Session) (*config.Run, error) {
	doc := *sc.Scenario
	doc.Sessions, doc.Faults = sessions, nil
	return doc.Prepare(nil)
}

// cleanSurvivors filters the run's sessions down to the ones whose
// service commitments must have survived the chaos: the ones the
// document's fault plan does not exempt (config.Scenario.Exempt, the
// rule litrun reports by). Churn and faults elsewhere in the network
// must not be observable there: that is the graceful-degradation
// guarantee under test.
func cleanSurvivors(res *runResult, sc *Case) []sessResult {
	exempt := sc.Exempt()
	var out []sessResult
	for i, sr := range res.Sessions {
		if !exempt[i] {
			out = append(out, sr)
		}
	}
	return out
}
