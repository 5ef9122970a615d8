package simcheck

import (
	"fmt"

	"leaveintime/internal/admission"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
	"leaveintime/internal/topo"
	"leaveintime/internal/traffic"
)

type topoLink = topo.Link

// scenarioGraph builds the routing graph (no ports yet) from the
// scenario's links.
func scenarioGraph(sc *Scenario) *topo.Graph {
	g := topo.New()
	for _, l := range sc.Topology.Links {
		if _, err := g.AddLink(l.From, l.To, l.Capacity, l.Gamma); err != nil {
			// Generated scenarios are valid by construction; a bad link
			// here is a harness bug, not a checkable outcome.
			panic(err)
		}
	}
	return g
}

// admitterSet holds one admission controller per link.
type admitterSet map[string]admission.Controller

func linkKey(l *topo.Link) string { return l.From + "->" + l.To }

// newAdmitters builds the per-link controllers. Class R values scale
// with each link's capacity, so one ClassDef list serves heterogeneous
// links.
func newAdmitters(sc *Scenario) admitterSet {
	set := make(admitterSet)
	for _, ld := range sc.Topology.Links {
		classes := make([]admission.Class, len(sc.Classes))
		for k, c := range sc.Classes {
			classes[k] = admission.Class{R: c.RFrac * ld.Capacity, Sigma: c.Sigma}
		}
		ctrl, err := admission.New(sc.Proc, ld.Capacity, classes)
		if err != nil {
			panic(err)
		}
		set[ld.From+"->"+ld.To] = ctrl
	}
	return set
}

// establish admits def at every link of its route (all or nothing) and
// returns the grants with the analytic bounds they determine. The
// generator keeps only sessions it established, so the replay at build
// time must succeed.
func (a admitterSet) establish(sc *Scenario, links []*topo.Link, def SessionDef) (*admission.Bounds, error) {
	path := make([]admission.Link, len(links))
	for i, l := range links {
		key := linkKey(l)
		path[i] = admission.Link{Name: key, Ctrl: a[key], C: l.Capacity, Gamma: l.Gamma}
	}
	return admission.Establish(path, sc.LMax, admission.Request{
		Spec:          admission.SessionSpec{ID: def.ID, Rate: def.Rate, LMax: def.LMax, LMin: def.LMin},
		Class:         def.Class,
		Opts:          admission.Options{PerPacket: true, D: def.D},
		JitterControl: def.JitterCtrl,
		B0:            def.Burst,
	})
}

// buildSource constructs the session's traffic source. Every kind
// conforms to the token bucket (Rate, Burst) by construction — CBR and
// ON-OFF emit at spacing LMax/Rate (the paper's voice model), Poisson
// and variable-length streams pass through an explicit shaper — so
// D_ref_max = Burst/Rate holds for the bound checks.
func buildSource(def SessionDef) traffic.Source {
	r := rng.New(def.Source.Seed)
	switch def.Source.Kind {
	case "cbr":
		return &traffic.Deterministic{Interval: def.LMax / def.Rate, Length: def.LMax}
	case "onoff":
		return &traffic.OnOff{
			T: def.LMax / def.Rate, Length: def.LMax,
			MeanOn: def.Source.MeanOn, MeanOff: def.Source.MeanOff, Rng: r,
		}
	case "poisson":
		return traffic.NewShaped(
			&traffic.Poisson{Mean: def.Source.MeanGap, Length: def.LMax, Rng: r},
			def.Rate, def.Burst)
	case "varlen":
		span := def.LMax - def.LMin
		lr := rng.New(def.Source.Seed + 0x9e3779b97f4a7c15)
		inner := &traffic.VariableLength{
			Src: &traffic.Poisson{Mean: def.Source.MeanGap, Length: def.LMax, Rng: r},
			Fn:  func(int64) float64 { return def.LMin + span*lr.Float64() },
		}
		return traffic.NewShaped(inner, def.Rate, def.Burst)
	default:
		panic(fmt.Sprintf("simcheck: unknown source kind %q", def.Source.Kind))
	}
}

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
	Def        SessionDef
	Hops       int
	Emitted    int64
	Delivered  int64
	Dropped    int64 // buffer-limit drops along the route
	MaxDelay   float64
	Jitter     float64
	DelayBound float64 // eq. 12 with D_ref_max = Burst/Rate
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
	Adm admitterSet
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
// its watchdog armed, the instrumented network built from the
// scenario's graph under one discipline (each port's scheduler wrapped
// in the checking decorator), the admission controllers, and the result
// both fill in.
type run struct {
	sc   *Scenario
	spec discSpec
	opts runOpts
	sim  *event.Simulator
	net  *network.Network
	g    *topo.Graph
	adm  admitterSet
	res  *runResult
}

func newRun(sc *Scenario, spec discSpec, opts runOpts) (*run, error) {
	if err := sc.Validate(); err != nil {
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

	adm := newAdmitters(sc)
	res := &runResult{Name: spec.name, Reg: reg, Counts: counts, Adm: adm}
	g := scenarioGraph(sc)
	err := g.Build(net, func(l *topo.Link) network.Discipline {
		return &checkedDisc{
			inner:         spec.mk(sc, l),
			disc:          spec.name,
			port:          linkKey(l),
			wc:            spec.workConserving(sc),
			deadlineCheck: spec.deadlineCheck,
			tol:           spec.deadlineTol(sc, l.Capacity),
			out:           &res.Violations,
		}
	})
	if err != nil {
		// Fresh graph per run: a double Build is a harness bug.
		panic(err)
	}
	return &run{sc: sc, spec: spec, opts: opts, sim: sim, net: net, g: g, adm: adm, res: res}, nil
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
func runScenario(sc *Scenario, spec discSpec, opts runOpts) (*runResult, error) {
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
	for _, def := range sc.Sessions {
		if sr, sess, probes, ok := r.establish(def); ok {
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

// admitted is a session's route after the admission replay: the links
// it traverses and everything the assignments determined.
type admitted struct {
	links  []*topo.Link
	cfgs   []network.SessionPort
	minCap float64
	bounds *admission.Bounds
}

// replayAdmission routes the session and replays admission at every hop
// (re-verifying what the generator admitted), producing the per-node
// session-port configurations and the analytic bounds. It is the
// discipline- and runtime-independent half of establish, shared with
// the sharded runner.
func replayAdmission(sc *Scenario, g *topo.Graph, adm admitterSet, def SessionDef) (*admitted, error) {
	links, err := g.RouteLinks(def.From, def.To)
	if err != nil {
		return nil, err
	}
	b, err := adm.establish(sc, links, def)
	if err != nil {
		return nil, err
	}
	out := &admitted{
		links:  links,
		cfgs:   make([]network.SessionPort, len(links)),
		minCap: links[0].Capacity,
		bounds: b,
	}
	for i, l := range links {
		a := b.Assignments[i]
		d := a.D
		if sc.Special {
			// The exactness corner: procedure 1 with one class and
			// eps = 0 assigns d = L/r, which SessionPort spells as a
			// nil D — the bit-exact VirtualClock special case (the
			// closure would round L*C/(r*C) differently from L/r).
			d = nil
		}
		out.cfgs[i] = network.SessionPort{
			D:    d,
			DMax: a.DMax,
			// Per-node budget for the EDD baselines: generous enough
			// that their (not re-run) schedulability test would not be
			// the binding constraint.
			LocalDelay: def.LMax/def.Rate + float64(len(sc.Sessions)+2)*sc.LMax/l.Capacity,
			XMin:       def.LMin / def.Rate,
		}
		if l.Capacity < out.minCap {
			out.minCap = l.Capacity
		}
	}
	return out, nil
}

// establish admits the session at every hop (replaying what the
// generator verified), derives its analytic bounds from the resulting
// assignments, and wires it into the network. A failed replay is
// recorded as a violation and reported as ok == false.
func (r *run) establish(def SessionDef) (sr *sessResult, sess *network.Session, probes []*network.BufferProbe, ok bool) {
	sc, opts := r.sc, r.opts
	ad, err := replayAdmission(sc, r.g, r.adm, def)
	var ports []*network.Port
	if err == nil {
		ports, err = r.g.Route(def.From, def.To)
	}
	if err != nil {
		r.res.Violations = append(r.res.Violations, Violation{
			Check: "admission-replay", Discipline: r.spec.name,
			Session: def.ID, Detail: err.Error(),
		})
		return nil, nil, nil, false
	}

	sr = &sessResult{
		Def:        def,
		Hops:       len(ad.links),
		MinLinkCap: ad.minCap,
		DelayBound: ad.bounds.DelayBound,
		JitterBnd:  ad.bounds.JitterBound,
	}

	sess = r.net.AddSession(def.ID, def.Rate, def.JitterCtrl, ports, ad.cfgs, buildSource(def))
	if opts.probes {
		for n, bound := range ad.bounds.BufferBoundBits {
			limited := opts.limits && def.LimitBuffers
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
	if opts.collectDelays {
		sess.OnDeliver = func(p *packet.Packet, delay float64) {
			sr.Delays = append(sr.Delays, seqDelay{Seq: p.Seq, Delay: delay})
		}
	}
	return sr, sess, probes, true
}
