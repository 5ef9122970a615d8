// Package config loads declarative network scenarios from JSON and
// runs them: servers, delay classes, sessions with traffic sources and
// token-bucket declarations, a duration and a seed. It is what
// cmd/litrun executes, letting downstream users describe experiments
// without writing Go.
//
// Schema (all rates bits/s, times seconds, lengths bits):
//
//	{
//	  "lmax": 424,
//	  "proc": 2,                               // optional, with classes
//	  "classes": [{"r": 640000, "sigma": 0.00277}, ...],
//	  "servers": [{"name": "n1", "capacity": 1536000, "gamma": 0.001}],
//	  "sessions": [{
//	    "name": "voice", "rate": 32000, "route": ["n1"],
//	    "class": 1, "jitter_control": true, "b0": 424,
//	    "source": {"kind": "onoff", "t": 0.01325, "length": 424,
//	               "mean_on": 0.352, "mean_off": 0.65}
//	  }],
//	  "duration": 60, "seed": 1
//	}
//
// Source kinds: onoff, poisson, deterministic, greedy; any of them may
// be wrapped with "shape_rate"/"shape_b0" to pass through a token
// bucket shaper. A session may declare its packet-length envelope with
// "lmax"/"lmin"; lmax defaults to the source's length and lmin to the
// smaller of lmax and that length, which must lie within the two.
//
// A document is built on a system.System: Parse refuses whatever the
// System's own validation refuses, so the only thing Prepare can still
// refuse is a session the admission rules reject.
package config

import (
	"encoding/json"
	"fmt"

	"leaveintime/internal/admission"
	"leaveintime/internal/event"
	"leaveintime/internal/faults"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/system"
	"leaveintime/internal/traffic"
)

// Scenario is the top-level document.
type Scenario struct {
	LMax     float64   `json:"lmax"`
	Proc     int       `json:"proc,omitempty"`
	Classes  []Class   `json:"classes,omitempty"`
	Servers  []Server  `json:"servers"`
	Sessions []Session `json:"sessions"`
	Duration float64   `json:"duration"`
	Seed     uint64    `json:"seed"`

	// Faults, when present, is a deterministic chaos plan injected into
	// the run: link/node outage windows, source stalls, and mid-run
	// session releases. Churn cycles with a resetup are rejected — the
	// declarative runner has no signaling path to re-establish through.
	// Session references are 1-based indexes into Sessions; port and
	// node references are server names.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// Class is one delay class.
type Class struct {
	R     float64 `json:"r"`
	Sigma float64 `json:"sigma"`
}

// Server describes one Leave-in-Time server.
type Server struct {
	Name     string  `json:"name"`
	Capacity float64 `json:"capacity"`
	Gamma    float64 `json:"gamma"`
	// Approximate selects the calendar-queue transmission queue.
	Approximate bool `json:"approximate,omitempty"`
}

// Session describes one connection.
type Session struct {
	Name          string   `json:"name"`
	Rate          float64  `json:"rate"`
	Route         []string `json:"route"`
	Class         int      `json:"class,omitempty"`
	JitterControl bool     `json:"jitter_control,omitempty"`
	LMax          float64  `json:"lmax,omitempty"`
	LMin          float64  `json:"lmin,omitempty"`
	Eps           float64  `json:"eps,omitempty"`
	FixedD        bool     `json:"fixed_d,omitempty"`
	B0            float64  `json:"b0,omitempty"`
	Source        Source   `json:"source"`
}

// Source describes a traffic generator.
type Source struct {
	Kind string `json:"kind"`
	// onoff
	T       float64 `json:"t,omitempty"`
	MeanOn  float64 `json:"mean_on,omitempty"`
	MeanOff float64 `json:"mean_off,omitempty"`
	// poisson / deterministic
	Mean     float64 `json:"mean,omitempty"`
	Interval float64 `json:"interval,omitempty"`
	// greedy
	Rate float64 `json:"rate,omitempty"`
	// shared
	Length float64 `json:"length"`
	// optional token bucket shaping applied on top
	ShapeRate float64 `json:"shape_rate,omitempty"`
	ShapeB0   float64 `json:"shape_b0,omitempty"`
}

// Parse decodes and validates a scenario document.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// systemConfig is the document's share of the System it lowers onto.
func (s *Scenario) systemConfig() system.Config {
	cfg := system.Config{LMax: s.LMax, Proc: s.Proc}
	for _, c := range s.Classes {
		cfg.Classes = append(cfg.Classes, admission.Class{R: c.R, Sigma: c.Sigma})
	}
	return cfg
}

// request is the session's connection request, less its route and
// source. A declared lmax defaults to the source's packet length, and
// lmin to the smaller of the two: the source sends one length, so that
// is the length eq. 12's alpha term must be taken at.
func (sc *Session) request() system.ConnectRequest {
	lMax := sc.LMax
	if lMax == 0 {
		lMax = sc.Source.Length
	}
	lMin := sc.LMin
	if lMin == 0 {
		lMin = min(lMax, sc.Source.Length)
	}
	return system.ConnectRequest{
		Rate: sc.Rate, JitterControl: sc.JitterControl, Class: sc.Class,
		LMax: lMax, LMin: lMin, Eps: sc.Eps, FixedD: sc.FixedD, B0: sc.B0,
	}
}

// validate refuses every document Prepare would refuse for a reason
// that can be read off the document alone; what is left to Prepare is
// the outcome of the admission rules. Servers and sessions are checked
// by the System's own validation, the code Prepare runs.
func (s *Scenario) validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("config: duration must be positive")
	}
	if len(s.Servers) == 0 {
		return fmt.Errorf("config: at least one server required")
	}
	cfg := s.systemConfig()
	servers := map[string]Server{}
	for i, sv := range s.Servers {
		if sv.Name == "" {
			return fmt.Errorf("config: server %d has no name", i)
		}
		if _, dup := servers[sv.Name]; dup {
			return fmt.Errorf("config: duplicate server %q", sv.Name)
		}
		servers[sv.Name] = sv
		if err := cfg.Check(sv.Name, sv.Capacity, sv.Gamma); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	known := func(name string) bool { _, ok := servers[name]; return ok }
	dry := rng.New(0) // buildSource below only checks parameters
	for i := range s.Sessions {
		sess := &s.Sessions[i]
		if len(sess.Route) == 0 {
			return fmt.Errorf("config: session %d has an empty route", i)
		}
		for _, hop := range sess.Route {
			if !known(hop) {
				return fmt.Errorf("config: session %d routes through unknown server %q", i, hop)
			}
		}
		if sess.Source.Length <= 0 {
			return fmt.Errorf("config: session %d source needs a positive length", i)
		}
		if _, err := buildSource(sess.Source, dry); err != nil {
			return fmt.Errorf("config: session %d: %w", i, err)
		}
		req := sess.request()
		if sess.Source.Length > req.LMax || sess.Source.Length < req.LMin {
			return fmt.Errorf("config: session %d sends %g-bit packets outside its declared lmin..lmax %g..%g",
				i, sess.Source.Length, req.LMin, req.LMax)
		}
		// The class table is the same at every server, so the first hop
		// stands for the route.
		first := servers[sess.Route[0]]
		if err := cfg.Check(first.Name, first.Capacity, first.Gamma, req); err != nil {
			return fmt.Errorf("config: session %d: %w", i, err)
		}
	}
	if !s.Faults.Empty() {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
		for i, l := range s.Faults.Links {
			if !known(l.Port) {
				return fmt.Errorf("config: fault %d names unknown port %q", i, l.Port)
			}
		}
		for i, n := range s.Faults.Nodes {
			if !known(n.Node) {
				return fmt.Errorf("config: node fault %d names unknown node %q", i, n.Node)
			}
		}
		for i, st := range s.Faults.Stalls {
			if st.Session < 1 || st.Session > len(s.Sessions) {
				return fmt.Errorf("config: stall %d names unknown session %d", i, st.Session)
			}
		}
		for i, c := range s.Faults.Churn {
			if c.Session < 1 || c.Session > len(s.Sessions) {
				return fmt.Errorf("config: churn cycle %d names unknown session %d", i, c.Session)
			}
			if c.Resetup != 0 {
				return fmt.Errorf("config: churn cycle %d schedules a resetup; the declarative runner supports release-only churn", i)
			}
		}
	}
	return nil
}

// SessionResult is the per-session outcome of a run.
type SessionResult struct {
	Name      string  `json:"name"`
	Delivered int64   `json:"delivered"`
	MaxDelay  float64 `json:"max_delay_s"`
	MeanDelay float64 `json:"mean_delay_s"`
	Jitter    float64 `json:"jitter_s"`
	// Bounds (zero when no b0 was declared).
	DelayBound  float64 `json:"delay_bound_s,omitempty"`
	JitterBound float64 `json:"jitter_bound_s,omitempty"`
	// BoundHolds reports MaxDelay < DelayBound when a bound exists.
	BoundHolds bool `json:"bound_holds"`
}

// Result is the outcome of running a scenario.
type Result struct {
	Duration float64         `json:"duration_s"`
	Sessions []SessionResult `json:"sessions"`
}

// Run executes the scenario and reports per-session measurements
// against their bounds.
func (s *Scenario) Run() (*Result, error) {
	return s.RunWithMetrics(nil)
}

// RunWithMetrics is Run with telemetry: when reg is non-nil the engine,
// packet pool, every port and scheduler, and the per-server admission
// controllers count into it. Snapshot it with reg.Snapshot(s.Duration)
// after the run. Results are identical with and without a registry.
func (s *Scenario) RunWithMetrics(reg *metrics.Registry) (*Result, error) {
	run, err := s.Prepare(reg)
	if err != nil {
		return nil, err
	}
	run.Start()
	run.RunSlice(s.Duration)
	return run.Finish(), nil
}

type tracked struct {
	cfg    Session
	sess   *network.Session
	bounds *system.Bounds
}

// Run is a prepared, steppable execution of a scenario: the network is
// built, every session is admitted and registered, but no simulated
// time has passed. A caller advances it in slices (RunSlice) and may
// purge sessions between slices — the service daemon's control path.
// Slicing never changes event order, so a fault-free Run driven in
// slices produces results byte-identical to Scenario.Run.
type Run struct {
	sc      *Scenario
	sys     *system.System
	servers map[string]*system.Server
	all     []tracked
	purged  []bool
	started bool
}

// Prepare builds the scenario without running it. When reg is non-nil
// the run counts telemetry into it exactly as RunWithMetrics does.
func (s *Scenario) Prepare(reg *metrics.Registry) (*Run, error) {
	sys, err := system.New(s.systemConfig())
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if reg != nil {
		sys.AttachMetrics(reg)
	}
	r := rng.New(s.Seed)

	servers := map[string]*system.Server{}
	for _, sv := range s.Servers {
		srv, err := sys.AddServerQueue(sv.Name, sv.Capacity, sv.Gamma, sv.Approximate)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		servers[sv.Name] = srv
	}

	var all []tracked
	for _, sc := range s.Sessions {
		req := sc.request()
		for _, hopName := range sc.Route {
			req.Route = append(req.Route, servers[hopName])
		}
		if req.Source, err = buildSource(sc.Source, r); err != nil {
			return nil, fmt.Errorf("config: session %q: %w", sc.Name, err)
		}
		sess, b, err := sys.Connect(req)
		if err != nil {
			return nil, fmt.Errorf("config: session %q rejected: %w", sc.Name, err)
		}
		all = append(all, tracked{cfg: sc, sess: sess, bounds: b})
	}

	run := &Run{sc: s, sys: sys, servers: servers, all: all, purged: make([]bool, len(all))}
	if !s.Faults.Empty() {
		faults.Inject(sys.Sim, (*runActions)(run), s.Faults)
	}
	return run, nil
}

// Sim exposes the run's event engine, e.g. to arm a watchdog before
// the first slice.
func (r *Run) Sim() *event.Simulator { return r.sys.Sim }

// Duration returns the scenario's configured run length.
func (r *Run) Duration() float64 { return r.sc.Duration }

// Now returns the current simulated time.
func (r *Run) Now() float64 { return r.sys.Sim.Now() }

// Start begins every session's traffic. Call once, before RunSlice.
func (r *Run) Start() {
	if r.started {
		return
	}
	r.started = true
	for _, tr := range r.all {
		tr.sess.Start(0, r.sc.Duration)
	}
}

// RunSlice advances simulated time to min(until, Duration) and reports
// whether the run is complete. Repeated slicing executes exactly the
// event sequence a single RunSlice(Duration) would.
func (r *Run) RunSlice(until float64) (done bool) {
	if until > r.sc.Duration {
		until = r.sc.Duration
	}
	r.sys.Sim.Run(until)
	return r.sys.Sim.Now() >= r.sc.Duration
}

// PurgeSession drops session id (1-based, matching the scenario's
// session order) mid-run: its source stops, queued packets are purged
// at every hop, and its reservation is released. Delivered-so-far
// statistics are retained for Finish. It reports whether the session
// was still registered.
func (r *Run) PurgeSession(id int) bool {
	if id < 1 || id > len(r.all) {
		return false
	}
	if r.purged[id-1] {
		return false
	}
	r.purged[id-1] = true
	r.sys.Net.DropSession(r.all[id-1].sess)
	r.sys.Teardown(r.all[id-1].sess)
	return true
}

// runActions adapts Run to the fault injector. Resetups are rejected
// at validation, so ResetupSession is unreachable.
type runActions Run

func (a *runActions) run() *Run { return (*Run)(a) }

func (a *runActions) LinkDown(port string) { a.run().servers[port].Port.FailLink() }
func (a *runActions) LinkUp(port string)   { a.run().servers[port].Port.RestoreLink() }

// NodeDown fails the node's outgoing link — in the declarative schema
// every server is exactly one port, so a node outage and a link outage
// coincide.
func (a *runActions) NodeDown(node string) { a.LinkDown(node) }
func (a *runActions) NodeUp(node string)   { a.LinkUp(node) }

func (a *runActions) StallSession(id int, on bool) {
	a.run().all[id-1].sess.SetStalled(on)
}

func (a *runActions) ReleaseSession(id int) { a.run().PurgeSession(id) }

func (a *runActions) ResetupSession(id int) {
	panic("config: resetup rejected at validation")
}

// Finish computes the per-session results at the current instant.
func (r *Run) Finish() *Result {
	s := r.sc
	res := &Result{Duration: s.Duration}
	for _, tr := range r.all {
		sr := SessionResult{
			Name:       tr.cfg.Name,
			Delivered:  tr.sess.Delivered,
			MaxDelay:   tr.sess.Delays.Max(),
			MeanDelay:  tr.sess.Delays.Mean(),
			Jitter:     tr.sess.Delays.Jitter(),
			BoundHolds: true,
		}
		if tr.cfg.B0 > 0 {
			sr.DelayBound = tr.bounds.DelayBound
			sr.JitterBound = tr.bounds.JitterBound
			sr.BoundHolds = sr.MaxDelay < sr.DelayBound
		}
		res.Sessions = append(res.Sessions, sr)
	}
	return res
}

func buildSource(sc Source, r *rng.Rand) (traffic.Source, error) {
	var src traffic.Source
	switch sc.Kind {
	case "onoff":
		if sc.T <= 0 || sc.MeanOn <= 0 {
			return nil, fmt.Errorf("onoff source needs positive t and mean_on")
		}
		src = &traffic.OnOff{T: sc.T, Length: sc.Length, MeanOn: sc.MeanOn,
			MeanOff: sc.MeanOff, Rng: r.Split()}
	case "poisson":
		if sc.Mean <= 0 {
			return nil, fmt.Errorf("poisson source needs positive mean")
		}
		src = &traffic.Poisson{Mean: sc.Mean, Length: sc.Length, Rng: r.Split()}
	case "deterministic":
		if sc.Interval <= 0 {
			return nil, fmt.Errorf("deterministic source needs positive interval")
		}
		src = &traffic.Deterministic{Interval: sc.Interval, Length: sc.Length}
	case "greedy":
		if sc.Rate <= 0 {
			return nil, fmt.Errorf("greedy source needs positive rate")
		}
		src = &traffic.Greedy{Rate: sc.Rate, Length: sc.Length}
	default:
		return nil, fmt.Errorf("unknown source kind %q", sc.Kind)
	}
	if sc.ShapeRate > 0 && sc.ShapeB0 > 0 {
		src = traffic.NewShaped(src, sc.ShapeRate, sc.ShapeB0)
	}
	return src, nil
}
