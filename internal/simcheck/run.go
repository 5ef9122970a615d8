package simcheck

import (
	"math"

	"leaveintime/internal/admission"
	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
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
	// Adm holds the run's admission controllers, kept so the churn
	// battery can demand TotalRate() == 0 after the final teardown.
	Adm map[string]admission.Controller
	// Tripped is the watchdog's trip reason; non-empty means the run was
	// cut short and only partial telemetry is meaningful.
	Tripped string
}

type runOpts struct {
	limits        bool // cap buffers at the bound for LimitBuffers sessions
	probes        bool // track per-hop occupancy
	collectDelays bool
	// wd, when non-zero, arms the run's watchdog budgets; a tripped run
	// reports a "watchdog" violation and skips drain-dependent checks.
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
	// term of the churn conservation check.
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

// run is what the clean and the churn runner share: the simulator with
// its watchdog armed, the instrumented network of one raw port per
// server under one discipline (each port's scheduler wrapped in the
// checking decorator), the admission controllers, the scenario's random
// stream for sources that bring no seed of their own, and the result
// both fill in.
type run struct {
	sc     *Case
	spec   discSpec
	opts   runOpts
	sim    *event.Simulator
	net    *network.Network
	ports  map[string]*network.Port
	adm    map[string]admission.Controller
	stream *rng.Rand
	res    *runResult
}

func newRun(sc *Case, spec discSpec, opts runOpts) (*run, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	adm, err := sc.Controllers()
	if err != nil {
		return nil, err
	}
	sim := event.New()
	if opts.wd != (event.Watchdog{}) {
		sim.SetWatchdog(opts.wd)
	}
	net := network.New(sim, sc.LMax)
	net.SetPoolDebug(true)
	reg := metrics.NewRegistry()
	net.EnableMetrics(reg)
	counts := newTraceCounts()
	net.Tracer = counts

	res := &runResult{Name: spec.name, Reg: reg, Counts: counts, Adm: adm}
	ports := make(map[string]*network.Port, len(sc.Servers))
	for i := range sc.Servers {
		sv := &sc.Servers[i]
		ports[sv.Name] = net.NewPort(sv.Name, sv.Capacity, sv.Gamma, spec.checked(sc, sv, &res.Violations))
	}
	return &run{sc: sc, spec: spec, opts: opts, sim: sim, net: net, ports: ports, adm: adm,
		stream: rng.New(sc.Seed), res: res}, nil
}

// finishTrip reports whether the watchdog cut the run short, recording
// the trip as a violation and in the fault telemetry.
func (r *run) finishTrip() bool {
	reason := r.sim.Tripped()
	if reason == "" {
		return false
	}
	r.res.Tripped = reason
	r.res.Reg.Arena().Inc(metrics.HFaultWatchdogTrips)
	r.res.Violations = append(r.res.Violations, Violation{
		Check: "watchdog", Discipline: r.spec.name, Detail: reason,
	})
	return true
}

// runScenario builds the scenario's network under one discipline and
// runs it to full drain. Violations detected online (by the checking
// decorator) are collected in the result; bound and cross-run checks
// happen in the battery.
func runScenario(sc *Case, spec discSpec, opts runOpts) (*runResult, error) {
	r, err := newRun(sc, spec, opts)
	if err != nil {
		return nil, err
	}
	type built struct {
		sess   *network.Session
		sr     *sessResult
		probes []*network.BufferProbe
	}
	var builds []built
	for i := range sc.Sessions {
		if sr, sess, probes, ok := r.establish(&sc.Sessions[i]); ok {
			builds = append(builds, built{sess: sess, sr: sr, probes: probes})
		}
	}

	for _, b := range builds {
		b.sess.Start(0, sc.Duration)
	}
	// Emission stops at Duration; everything still queued, regulated or
	// framed then drains, so RunAll terminates with an empty network.
	r.sim.RunAll()
	r.finishTrip()

	for _, b := range builds {
		b.sr.Emitted = b.sess.Emitted
		b.sr.Delivered = b.sess.Delivered
		b.sr.collect(b.sess, b.probes)
		r.res.Sessions = append(r.res.Sessions, *b.sr)
	}
	r.res.Pool = r.net.PoolStats()
	return r.res, nil
}

// collect reads the delay statistics of the session's (last)
// incarnation and the per-hop buffer observations into the result.
func (sr *sessResult) collect(sess *network.Session, probes []*network.BufferProbe) {
	if sess != nil && sess.Delays.Count() > 0 {
		sr.MaxDelay = sess.Delays.Max()
		sr.Jitter = sess.Delays.Jitter()
	}
	for i, pr := range probes {
		sr.Probes[i].MaxBits = pr.MaxBits
		sr.Probes[i].Dropped = pr.DroppedPackets
		sr.Dropped += pr.DroppedPackets
	}
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
// discipline- and runtime-independent half of establish, shared with
// the sharded runner.
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
// assignments, and wires it into the network. A failed replay is
// recorded as a violation and reported as ok == false.
func (r *run) establish(def *config.Session) (sr *sessResult, sess *network.Session, probes []*network.BufferProbe, ok bool) {
	ad, err := replayAdmission(r.sc, r.adm, def)
	if err != nil {
		r.res.Violations = append(r.res.Violations, Violation{
			Check: "admission-replay", Discipline: r.spec.name,
			Session: def.ID, Detail: err.Error(),
		})
		return nil, nil, nil, false
	}

	sr = &sessResult{
		Def:        def,
		Hops:       len(ad.hops),
		MinLinkCap: ad.minCap,
		DelayBound: ad.bounds.DelayBound,
		JitterBnd:  ad.bounds.JitterBound,
	}

	ports := r.route(def)
	sess = r.net.AddSession(def.ID, def.Rate, def.JitterControl, ports, ad.cfgs, r.source(def))
	if r.opts.probes {
		for n, bound := range ad.bounds.BufferBoundBits {
			limited := r.opts.limits && def.LimitBuffers
			var pr *network.BufferProbe
			if limited {
				pr = ports[n].LimitBuffer(def.ID, bound)
			} else {
				pr = ports[n].TrackBuffer(def.ID)
			}
			probes = append(probes, pr)
			sr.Probes = append(sr.Probes, probeResult{
				Port: ports[n].Name, Bound: bound, Limited: limited,
			})
		}
	}
	if r.opts.collectDelays {
		sess.OnDeliver = func(p *packet.Packet, delay float64) {
			sr.Delays = append(sr.Delays, seqDelay{Seq: p.Seq, Delay: delay})
		}
	}
	return sr, sess, probes, true
}

// route returns the ports of the session's route.
func (r *run) route(def *config.Session) []*network.Port {
	ports := make([]*network.Port, len(def.Route))
	for i, name := range def.Route {
		ports[i] = r.ports[name]
	}
	return ports
}
