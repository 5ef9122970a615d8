package simcheck

import (
	"math"

	"leaveintime/internal/admission"
	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/faults"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/signaling"
	"leaveintime/internal/traffic"
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
	// Adm holds the run's admission controllers, kept so the battery can
	// demand TotalRate() == 0 after the final teardown.
	Adm map[string]admission.Controller
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
	Arrivals  map[string]int64
	Transmits map[string]int64
	Drops     map[string]int64 // every Drop event, any cause
	// FaultDrops and SigDrops are per-port partitions of Drops;
	// SessDrops counts per-session packet losses (buffer, fault and
	// purge causes — signaling losses excluded), the per-session drop
	// term of the conservation check.
	FaultDrops map[string]int64
	SigDrops   map[string]int64
	SessDrops  map[int]int64
}

func newTraceCounts() *traceCounts {
	return &traceCounts{
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
			t.SessDrops[e.Session]++
		case "fault", "purge", "purged":
			t.SessDrops[e.Session]++
			t.FaultDrops[e.Port]++
		default:
			t.SigDrops[e.Port]++
		}
	}
}

// sess is one scenario session across the run: the result being filled
// in, the current network incarnation (nil while released) and the
// session's signaler. Emitted and Delivered sum the incarnations already
// torn down; the live one's are added when the run is collected.
type sess struct {
	sessResult
	hops   []*config.Server
	ports  []*network.Port
	sig    *signaling.Signaler
	live   *network.Session
	probes []*network.BufferProbe
}

// run is one discipline's run over the scenario: the simulator with its
// watchdog armed, the instrumented network of one raw port per server
// (each port's scheduler wrapped in the checking decorator), the
// admission controllers, the scenario's random stream for sources that
// bring no seed of their own, and the result being filled in. It
// implements faults.Actions (see churn.go).
type run struct {
	sc       *Case
	row      sched.Row
	opts     runOpts
	sim      *event.Simulator
	net      *network.Network
	ports    map[string]*network.Port
	adm      map[string]admission.Controller
	stream   *rng.Rand
	res      *runResult
	sessions []*sess // establishment order
}

// runScenario builds the scenario's network under one discipline,
// injects the fault plan (nothing, on a clean network), runs to full
// drain and returns every reservation through the signaling layer.
// Per-session counters sum over a churned session's incarnations.
// Violations detected online (by the checking decorator) are collected
// in the result; bound and cross-run checks happen in the battery.
func runScenario(sc *Case, row sched.Row, opts runOpts) (*runResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	adm, err := sc.Controllers()
	if err != nil {
		return nil, err
	}
	sim := event.New()
	sim.SetWatchdog(opts.wd)
	net := network.New(sim, sc.LMax)
	net.SetPoolDebug(true)
	reg := metrics.NewRegistry()
	net.EnableMetrics(reg)
	counts := newTraceCounts()
	net.Tracer = counts

	res := &runResult{Name: row.Name, Reg: reg, Counts: counts, Adm: adm}
	r := &run{sc: sc, row: row, opts: opts, sim: sim, net: net, adm: adm, stream: rng.New(sc.Seed), res: res,
		ports: make(map[string]*network.Port, len(sc.Servers))}
	for i := range sc.Servers {
		sv := &sc.Servers[i]
		r.ports[sv.Name] = net.NewPort(sv.Name, sv.Capacity, sv.Gamma, checked(sc, row, sv, &res.Violations))
	}
	for i := range sc.Sessions {
		r.establish(&sc.Sessions[i])
	}

	faults.Inject(sim, r, sc.Faults)
	for _, s := range r.sessions {
		s.live.Start(0, sc.Duration)
	}
	// Emission stops at Duration; everything still queued, regulated or
	// framed then drains, so RunAll terminates with an empty network.
	sim.RunAll()
	if sim.Tripped() == "" {
		// Final teardown pass: every reservation still held — the
		// survivors', the re-established churners', and any remnant
		// stranded by a lost signaling message — goes back through the
		// normal RELEASE walk, so the capacity-zero check exercises the
		// same release path mid-run teardowns use. All fault windows
		// have closed by now, so no RELEASE can be lost again.
		for _, s := range r.sessions {
			if s.sig.Established(s.Def.ID) {
				_ = s.sig.Teardown(s.Def.ID, nil) // established, so it cannot fail
			}
		}
		sim.RunAll()
	}
	if reason := sim.Tripped(); reason != "" {
		res.Tripped = reason
		reg.Arena().Inc(metrics.HFaultWatchdogTrips)
		res.Violations = append(res.Violations, Violation{Check: "watchdog", Discipline: row.Name, Detail: reason})
	}

	for _, s := range r.sessions {
		if s.live != nil {
			s.Emitted += s.live.Emitted
			s.Delivered += s.live.Delivered
			if s.live.Delays.Count() > 0 {
				s.MaxDelay = s.live.Delays.Max()
				s.Jitter = s.live.Delays.Jitter()
			}
		}
		for i, pr := range s.probes {
			s.Probes[i].MaxBits = pr.MaxBits
			s.Probes[i].Dropped = pr.DroppedPackets
			s.Dropped += pr.DroppedPackets
		}
		res.Sessions = append(res.Sessions, s.sessResult)
	}
	res.Pool = net.PoolStats()
	return res, nil
}

// admitted is a session's route after the admission replay: the servers
// it traverses and everything the assignments determined.
type admitted struct {
	hops   []*config.Server
	cfgs   []network.SessionPort
	minCap float64
	bounds *admission.Bounds
}

// replayAdmission replays admission at every hop of the session's route
// (re-verifying what the generator admitted), producing the per-node
// session-port configurations and the analytic bounds. It is the
// discipline-independent half of establish, shared with the
// class-aggregate and calculus batteries.
func replayAdmission(sc *Case, adm map[string]admission.Controller, def *config.Session) (*admitted, error) {
	hops := sc.hops(def)
	b, err := establish(sc, adm, def, hops)
	if err != nil {
		return nil, err
	}
	out := &admitted{hops: hops, minCap: math.Inf(1), bounds: b}
	for _, sv := range hops {
		out.minCap = min(out.minCap, sv.Capacity)
	}
	out.cfgs = sessionPorts(sc, def, out.hops, b.Assignments)
	return out, nil
}

// sessionPorts turns the per-hop grants into the session-port
// configurations the network takes.
func sessionPorts(sc *Case, def *config.Session, hops []*config.Server, grants []admission.Assignment) []network.SessionPort {
	req := def.Request()
	cfgs := make([]network.SessionPort, len(hops))
	for i, sv := range hops {
		d := grants[i].D
		if sc.Check.Special {
			// The exactness corner: procedure 1 with one class and
			// eps = 0 assigns d = L/r, which SessionPort spells as a
			// nil D — the bit-exact VirtualClock special case (the
			// closure would round L*C/(r*C) differently from L/r).
			d = nil
		}
		cfgs[i] = network.SessionPort{
			D:    d,
			DMax: grants[i].DMax,
			// Per-node budget for the EDD baselines: generous enough
			// that their (not re-run) schedulability test would not be
			// the binding constraint.
			LocalDelay: req.LMax/req.Rate + float64(len(sc.Sessions)+2)*sc.LMax/sv.Capacity,
			XMin:       req.LMin / req.Rate,
		}
	}
	return cfgs
}

// source builds the session's traffic source; a source without a seed
// of its own draws the run's next stream, in establishment order.
func (r *run) source(def *config.Session) traffic.Source {
	src, err := def.BuildSource(r.stream)
	if err != nil {
		panic(err) // Validate built it once already
	}
	return src
}

// establish admits the session at every hop (replaying what the
// generator verified), derives its analytic bounds from the resulting
// assignments, wires it into the network and gives it a signaler that
// holds the reservation just made. A failed replay is recorded as a
// violation and the session left out of the run.
func (r *run) establish(def *config.Session) {
	ad, err := replayAdmission(r.sc, r.adm, def)
	if err != nil {
		r.res.Violations = append(r.res.Violations, Violation{
			Check: "admission-replay", Discipline: r.row.Name,
			Session: def.ID, Detail: err.Error(),
		})
		return
	}

	s := &sess{
		sessResult: sessResult{
			Def:        def,
			Hops:       len(ad.hops),
			MinLinkCap: ad.minCap,
			DelayBound: ad.bounds.DelayBound,
			JitterBnd:  ad.bounds.JitterBound,
		},
		hops:  ad.hops,
		ports: make([]*network.Port, len(def.Route)),
	}
	for i, name := range def.Route {
		s.ports[i] = r.ports[name]
	}
	s.live = r.net.AddSession(def.ID, def.Rate, def.JitterControl, s.ports, ad.cfgs, r.source(def))
	if r.opts.probes {
		for n, bound := range ad.bounds.BufferBoundBits {
			limited := r.opts.limits && def.LimitBuffers
			var pr *network.BufferProbe
			if limited {
				pr = s.ports[n].LimitBuffer(def.ID, bound)
			} else {
				pr = s.ports[n].TrackBuffer(def.ID)
			}
			s.probes = append(s.probes, pr)
			s.Probes = append(s.Probes, probeResult{
				Port: s.ports[n].Name, Bound: bound, Limited: limited,
			})
		}
	}
	if r.opts.collectDelays {
		s.live.SetOnDeliver(func(p *packet.Packet, delay float64) {
			s.Delays = append(s.Delays, seqDelay{Seq: p.Seq, Delay: delay})
		})
	}
	s.sig = r.newSignaler(s)
	r.sessions = append(r.sessions, s)
}
