// Package config is the scenario document: servers, delay classes,
// sessions with traffic sources and token-bucket declarations, a
// duration, a seed and an optional fault plan, as JSON. It is the one
// scenario type in the module: cmd/litrun and cmd/litserve run it, and
// cmd/litcheck generates it from a seed, shrinks it and writes it out
// as a repro, so a failure found by one tool is a file for the others.
//
// Schema (all rates bits/s, times seconds, lengths bits):
//
//	{
//	  "lmax": 424,
//	  "proc": 2,                               // 1, 2 or 3; optional
//	  "classes": [{"r": 640000, "sigma": 0.00277}, {"r_frac": 1, "sigma": 0.005}],
//	  "servers": [{"name": "n1", "capacity": 1536000, "gamma": 0.001},
//	              {"from": "a", "to": "b", "capacity": 768000, "gamma": 0.001}],
//	  "sessions": [{
//	    "id": 1, "name": "voice", "rate": 32000, "route": ["n1", "a->b"],
//	    "class": 1, "jitter_control": true, "b0": 424, "limit_buffers": true,
//	    "source": {"kind": "onoff", "t": 0.01325, "length": 424,
//	               "mean_on": 0.352, "mean_off": 0.65, "seed": 7}
//	  }],
//	  "duration": 60, "seed": 1,
//	  "faults": {"nodes": [{"node": "a", "down": 10, "up": 11}]}
//	}
//
// A server is the output port of the directed link from -> to, named
// "from->to" unless it says otherwise; one that gives neither is a node
// of its own, as every server was before links could be written down.
// Consecutive link servers of a route must join. A node fault addresses
// from and fails every server leaving the node.
//
// A class caps its bandwidth at r, or at r_frac of each server's
// capacity, so that one class list keeps R_P = C on links of different
// capacities. Procedure 3 takes no classes: each session brings its
// fixed service parameter d instead of class, eps and fixed_d.
//
// A session is named in fault plans and purges by its id, by default
// its 1-based position. It may declare its packet-length envelope with
// "lmax"/"lmin"; lmax defaults to the source's length and lmin to the
// smaller of lmax and that length, which must lie within the two. b0
// declares the token bucket (rate, b0) the source keeps to, which eq. 14
// needs and the reported bounds with it; a bucket below lmax passes no
// packet and is refused. limit_buffers caps the session's buffer at
// every hop at the Section 3.3 bound.
//
// Source kinds: onoff, poisson, deterministic, greedy, and varlen
// (Poisson arrivals, lengths uniform over the session's lmin..lmax);
// any of them may be wrapped with "shape_rate" and "shape_b0", both or
// neither, to pass through a token bucket shaper at least one packet
// deep. A source with a non-zero seed has a random stream of its own;
// the others split the scenario's in session order.
//
// A repro written by cmd/litcheck is a document with one more object,
// "check", holding the three keys only the harness reads (kind, special,
// bound_scale); Parse ignores it as it ignores any unknown key.
// litcheck -replay accepts any document Parse accepts, and also a
// plan that releases a session and sets it up again, which is valid
// (Validate) but which only the harness's signaling path can run
// (Runnable).
//
// A document is built on a system.System: Validate refuses whatever the
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
	"leaveintime/internal/topo"
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
	// session releases. Session references are session ids, port
	// references server names, node references a server's from (its own
	// name when it declares no link). A churn cycle with a resetup is a
	// valid document that the declarative runner refuses (Runnable): it
	// has no signaling path to re-establish through.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// Class is one delay class; its bandwidth cap is r, or r_frac of each
// server's capacity.
type Class struct {
	R     float64 `json:"r,omitempty"`
	RFrac float64 `json:"r_frac,omitempty"`
	Sigma float64 `json:"sigma"`
}

// Server describes one Leave-in-Time server: the output port of the
// directed link from -> to when those are given, a node of its own
// otherwise. Name defaults to "from->to".
type Server struct {
	Name     string  `json:"name,omitempty"`
	From     string  `json:"from,omitempty"`
	To       string  `json:"to,omitempty"`
	Capacity float64 `json:"capacity"`
	Gamma    float64 `json:"gamma"`
	// Approximate selects the approximate transmission queue of the
	// paper's Section 4 (deadlines binned to days of lmax/capacity): an
	// accuracy ablation, not a faster queue.
	Approximate bool `json:"approximate,omitempty"`
}

// key is the server's name with its default applied.
func (sv *Server) key() string {
	if sv.Name == "" && sv.From != "" {
		return sv.From + "->" + sv.To
	}
	return sv.Name
}

// Node is the node a node fault addresses to take this server down.
func (sv *Server) Node() string {
	if sv.From != "" {
		return sv.From
	}
	return sv.key()
}

// Session describes one connection.
type Session struct {
	// ID is what fault plans, purges and the conformance harness name
	// the session by; it defaults to the session's 1-based position and
	// may not exceed maxSessionID.
	ID            int      `json:"id,omitempty"`
	Name          string   `json:"name,omitempty"`
	Rate          float64  `json:"rate"`
	Route         []string `json:"route"`
	Class         int      `json:"class,omitempty"`
	JitterControl bool     `json:"jitter_control,omitempty"`
	LMax          float64  `json:"lmax,omitempty"`
	LMin          float64  `json:"lmin,omitempty"`
	Eps           float64  `json:"eps,omitempty"`
	FixedD        bool     `json:"fixed_d,omitempty"`
	// D is the fixed d procedure 3 admits the session with.
	D  float64 `json:"d,omitempty"`
	B0 float64 `json:"b0,omitempty"`
	// LimitBuffers caps the session's buffer at every hop at the
	// Section 3.3 bound b0 determines: the loss-free provisioning.
	LimitBuffers bool   `json:"limit_buffers,omitempty"`
	Source       Source `json:"source"`
}

// Source describes a traffic generator.
type Source struct {
	Kind string `json:"kind"`
	// Seed, when non-zero, gives the source a random stream of its own;
	// zero takes the next split of the scenario's stream.
	Seed uint64 `json:"seed,omitempty"`
	// onoff
	T       float64 `json:"t,omitempty"`
	MeanOn  float64 `json:"mean_on,omitempty"`
	MeanOff float64 `json:"mean_off,omitempty"`
	// poisson, varlen / deterministic
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

// Parse decodes a scenario document and checks that it is valid and
// that the declarative runner can run it.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.Runnable(); err != nil {
		return nil, err
	}
	return &s, nil
}

// systemConfig is the document's share of the System it lowers onto.
func (s *Scenario) systemConfig() system.Config {
	cfg := system.Config{LMax: s.LMax, Proc: s.Proc}
	for _, c := range s.Classes {
		cfg.Classes = append(cfg.Classes, admission.Class{R: c.R, RFrac: c.RFrac, Sigma: c.Sigma})
	}
	return cfg
}

// Controllers returns a fresh admission controller per server, keyed by
// server name: what a System built from the document installs.
func (s *Scenario) Controllers() (map[string]admission.Controller, error) {
	cfg := s.systemConfig()
	set := make(map[string]admission.Controller, len(s.Servers))
	for i := range s.Servers {
		sv := &s.Servers[i]
		ctrl, err := admission.New(cfg.Proc, sv.Capacity, cfg.Classes)
		if err != nil {
			return nil, fmt.Errorf("config: server %s: %w", sv.key(), err)
		}
		set[sv.key()] = ctrl
	}
	return set, nil
}

// Graph returns the servers as a topology, link i being server i. Every
// server must name its link (from, to).
func (s *Scenario) Graph() (*topo.Graph, error) {
	g := topo.New()
	for i := range s.Servers {
		sv := &s.Servers[i]
		if _, err := g.AddLink(sv.From, sv.To, sv.Capacity, sv.Gamma); err != nil {
			return nil, fmt.Errorf("config: server %s: %w", sv.key(), err)
		}
	}
	return g, nil
}

// Request is the session's connection request, less its route and
// source, with the document's defaults applied: class 1, lmax the
// source's packet length, and lmin the smaller of the two: the source
// sends one length, so that is the length eq. 12's alpha term must be
// taken at.
func (sc *Session) Request() system.ConnectRequest {
	lMax := sc.LMax
	if lMax == 0 {
		lMax = sc.Source.Length
	}
	lMin := sc.LMin
	if lMin == 0 {
		lMin = min(lMax, sc.Source.Length)
	}
	class := sc.Class
	if class == 0 {
		class = 1
	}
	return system.ConnectRequest{
		Rate: sc.Rate, JitterControl: sc.JitterControl, Class: class,
		LMax: lMax, LMin: lMin, Eps: sc.Eps, FixedD: sc.FixedD, D: sc.D, B0: sc.B0,
	}
}

// maxSessionID is the largest id a document may give a session. The
// conformance harness hands document ids to the network as they stand,
// and per-id state costs eight bytes per 256 ids of span (see sesstab):
// this bound keeps such a directory under a megabyte, where an id in the
// trillions exhausted memory.
const maxSessionID = 1 << 24

// Validate refuses every document no run could be built from, for a
// reason that can be read off the document alone; what is left to
// Prepare is the outcome of the admission rules. Servers and sessions
// are checked by the System's own validation, the code Prepare runs.
// It writes the two positional defaults, server names and session ids,
// into the document, so that what was checked is what is read.
func (s *Scenario) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("config: duration must be positive")
	}
	if len(s.Servers) == 0 {
		return fmt.Errorf("config: at least one server required")
	}
	if s.Proc == 3 && len(s.Classes) > 0 {
		return fmt.Errorf("config: procedure 3 takes no classes")
	}
	cfg := s.systemConfig()
	servers := map[string]*Server{}
	nodes := map[string]bool{}
	for i := range s.Servers {
		sv := &s.Servers[i]
		if (sv.From == "") != (sv.To == "") || (sv.From != "" && sv.From == sv.To) {
			return fmt.Errorf("config: server %d needs both from and to, distinct, or neither", i)
		}
		if sv.Name = sv.key(); sv.Name == "" {
			return fmt.Errorf("config: server %d has no name", i)
		}
		if servers[sv.Name] != nil {
			return fmt.Errorf("config: duplicate server %q", sv.Name)
		}
		servers[sv.Name] = sv
		nodes[sv.Node()] = true
		if err := cfg.Check(sv.Name, sv.Capacity, sv.Gamma); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	ids := map[int]bool{}
	dry := rng.New(0) // BuildSource below only checks parameters
	for i := range s.Sessions {
		sess := &s.Sessions[i]
		if sess.ID = sess.id(i); sess.ID < 0 || ids[sess.ID] {
			return fmt.Errorf("config: session %d has a negative or duplicate id %d", i, sess.ID)
		}
		if sess.ID > maxSessionID {
			return fmt.Errorf("config: session %d has id %d, above the largest a document may use, %d", i, sess.ID, maxSessionID)
		}
		ids[sess.ID] = true
		if len(sess.Route) == 0 {
			return fmt.Errorf("config: session %d has an empty route", i)
		}
		var prev *Server
		for _, hop := range sess.Route {
			sv := servers[hop]
			if sv == nil {
				return fmt.Errorf("config: session %d routes through unknown server %q", i, hop)
			}
			if prev != nil && prev.To != "" && sv.From != "" && prev.To != sv.From {
				return fmt.Errorf("config: session %d routes from %q to %q, which do not join", i, prev.Name, hop)
			}
			prev = sv
		}
		if sess.Source.Length <= 0 {
			return fmt.Errorf("config: session %d source needs a positive length", i)
		}
		if _, err := sess.BuildSource(dry); err != nil {
			return fmt.Errorf("config: session %d: %w", i, err)
		}
		req := sess.Request()
		if sess.Source.Length > req.LMax || sess.Source.Length < req.LMin {
			return fmt.Errorf("config: session %d sends %g-bit packets outside its declared lmin..lmax %g..%g",
				i, sess.Source.Length, req.LMin, req.LMax)
		}
		if sess.LimitBuffers && sess.B0 == 0 {
			return fmt.Errorf("config: session %d limits its buffers to a bound that needs b0", i)
		}
		if sess.D != 0 && s.Proc != 3 {
			return fmt.Errorf("config: session %d asks for a fixed d, which needs proc 3", i)
		}
		// The class table is the same at every server, so the first hop
		// stands for the route.
		first := servers[sess.Route[0]]
		if err := cfg.Check(first.Name, first.Capacity, first.Gamma, req); err != nil {
			return fmt.Errorf("config: session %d: %w", i, err)
		}
	}
	if s.Faults.Empty() {
		return nil
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	for i, l := range s.Faults.Links {
		if servers[l.Port] == nil {
			return fmt.Errorf("config: fault %d names unknown port %q", i, l.Port)
		}
	}
	for i, n := range s.Faults.Nodes {
		if !nodes[n.Node] {
			return fmt.Errorf("config: node fault %d names unknown node %q", i, n.Node)
		}
	}
	for i, st := range s.Faults.Stalls {
		if !ids[st.Session] {
			return fmt.Errorf("config: stall %d names unknown session %d", i, st.Session)
		}
	}
	for i, c := range s.Faults.Churn {
		if !ids[c.Session] {
			return fmt.Errorf("config: churn cycle %d names unknown session %d", i, c.Session)
		}
	}
	return nil
}

// Runnable is the one rule the declarative runner adds to Validate: it
// releases sessions mid-run but cannot set one up again.
func (s *Scenario) Runnable() error {
	if s.Faults == nil {
		return nil
	}
	for i, c := range s.Faults.Churn {
		if c.Resetup != 0 {
			return fmt.Errorf("config: churn cycle %d schedules a resetup; the declarative runner supports release-only churn", i)
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

// RunWithMetrics executes the scenario and reports per-session
// measurements against their bounds. When reg is non-nil the engine,
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
	cfg    *Session
	sess   *network.Session
	bounds *system.Bounds
	purged bool
}

// Run is a prepared, steppable execution of a scenario: the network is
// built, every session is admitted and registered, but no simulated
// time has passed. A caller advances it in slices (RunSlice) and may
// purge sessions between slices — the service daemon's control path.
// Slicing never changes event order, so a fault-free Run driven in
// slices produces results byte-identical to RunWithMetrics.
type Run struct {
	sc      *Scenario
	sys     *system.System
	servers map[string]*system.Server
	all     []tracked
	byID    map[int]*tracked
	started bool
}

// Prepare builds the scenario without running it. When reg is non-nil
// the run counts telemetry into it exactly as RunWithMetrics does.
func (s *Scenario) Prepare(reg *metrics.Registry) (*Run, error) {
	if err := s.Runnable(); err != nil {
		return nil, err
	}
	sys, err := system.New(s.systemConfig())
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if reg != nil {
		sys.AttachMetrics(reg)
	}
	r := rng.New(s.Seed)

	servers := map[string]*system.Server{}
	for i := range s.Servers {
		sv := &s.Servers[i]
		srv, err := sys.AddServerQueue(sv.key(), sv.Capacity, sv.Gamma, sv.Approximate)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		servers[sv.key()] = srv
	}

	run := &Run{sc: s, sys: sys, servers: servers,
		all: make([]tracked, len(s.Sessions)), byID: make(map[int]*tracked, len(s.Sessions))}
	for i := range s.Sessions {
		sc := &s.Sessions[i]
		req := sc.Request()
		for _, hopName := range sc.Route {
			req.Route = append(req.Route, servers[hopName])
		}
		if req.Source, err = sc.BuildSource(r); err != nil {
			return nil, fmt.Errorf("config: session %q: %w", sc.Name, err)
		}
		sess, b, err := sys.Connect(req)
		if err != nil {
			return nil, fmt.Errorf("config: session %q rejected: %w", sc.Name, err)
		}
		if sc.LimitBuffers {
			for n, bound := range b.BufferBoundBits {
				sess.Route[n].LimitBuffer(sess.ID, bound)
			}
		}
		run.all[i] = tracked{cfg: sc, sess: sess, bounds: b}
		run.byID[sc.id(i)] = &run.all[i]
	}
	if !s.Faults.Empty() {
		faults.Inject(sys.Sim, (*runActions)(run), s.Faults)
	}
	return run, nil
}

// id is the session's id with its default, the 1-based position.
func (sc *Session) id(i int) int {
	if sc.ID != 0 {
		return sc.ID
	}
	return i + 1
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

// PurgeSession drops the session of that id (by default its 1-based
// position in the scenario) mid-run: its source stops, queued packets
// are purged at every hop, and its reservation is released.
// Delivered-so-far statistics are retained for Finish. It reports
// whether the session was still registered.
func (r *Run) PurgeSession(id int) bool {
	tr := r.byID[id]
	if tr == nil || tr.purged {
		return false
	}
	tr.purged = true
	r.sys.Net.DropSession(tr.sess)
	r.sys.Teardown(tr.sess)
	return true
}

// runActions adapts Run to the fault injector. Resetups are refused by
// Runnable, so ResetupSession is unreachable.
type runActions Run

func (a *runActions) LinkDown(port string) { a.servers[port].Port.FailLink() }
func (a *runActions) LinkUp(port string)   { a.servers[port].Port.RestoreLink() }

// NodeDown fails every server whose link leaves the node; a server that
// declares no link is its own node.
func (a *runActions) NodeDown(node string) { a.eachAt(node, a.LinkDown) }
func (a *runActions) NodeUp(node string)   { a.eachAt(node, a.LinkUp) }

func (a *runActions) eachAt(node string, do func(port string)) {
	for i := range a.sc.Servers {
		if sv := &a.sc.Servers[i]; sv.Node() == node {
			do(sv.key())
		}
	}
}

func (a *runActions) StallSession(id int, on bool) { a.byID[id].sess.SetStalled(on) }

func (a *runActions) ReleaseSession(id int) { (*Run)(a).PurgeSession(id) }

func (a *runActions) ResetupSession(id int) {
	panic("config: resetup refused by Runnable")
}

// Finish computes the per-session results at the current instant. An
// unnamed session is reported as s<id>.
func (r *Run) Finish() *Result {
	s := r.sc
	res := &Result{Duration: s.Duration}
	for i, tr := range r.all {
		sr := SessionResult{
			Name:       tr.cfg.Name,
			Delivered:  tr.sess.Delivered,
			MaxDelay:   tr.sess.Delays.Max(),
			MeanDelay:  tr.sess.Delays.Mean(),
			Jitter:     tr.sess.Delays.Jitter(),
			BoundHolds: true,
		}
		if sr.Name == "" {
			sr.Name = fmt.Sprintf("s%d", tr.cfg.id(i))
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

// stream is the source's k-th random stream: its own when it is seeded,
// otherwise the next split of the scenario's.
func (sc Source) stream(scenario *rng.Rand, k uint64) *rng.Rand {
	if sc.Seed != 0 {
		return rng.New(sc.Seed + k*0x9e3779b97f4a7c15)
	}
	return scenario.Split()
}

// BuildSource constructs the session's traffic source, drawing unseeded
// randomness from the scenario's stream r.
func (sess *Session) BuildSource(r *rng.Rand) (traffic.Source, error) {
	sc := sess.Source
	longest := sc.Length
	var src traffic.Source
	switch sc.Kind {
	case "onoff":
		// mean_off = 0 is the paper's fixed-rate source (a_OFF = 0).
		if sc.T <= 0 || sc.MeanOn <= 0 || sc.MeanOff < 0 {
			return nil, fmt.Errorf("onoff source needs positive t and mean_on and a nonnegative mean_off")
		}
		src = &traffic.OnOff{T: sc.T, Length: sc.Length, MeanOn: sc.MeanOn,
			MeanOff: sc.MeanOff, Rng: sc.stream(r, 0)}
	case "poisson", "varlen":
		if sc.Mean <= 0 {
			return nil, fmt.Errorf("%s source needs positive mean", sc.Kind)
		}
		src = &traffic.Poisson{Mean: sc.Mean, Length: sc.Length, Rng: sc.stream(r, 0)}
		if sc.Kind == "varlen" {
			// Poisson arrivals, lengths uniform over the session's
			// lmin..lmax.
			req, lengths := sess.Request(), sc.stream(r, 1)
			lo, span := req.LMin, req.LMax-req.LMin
			longest = req.LMax
			src = &traffic.VariableLength{Src: src, Fn: func(int64) float64 { return lo + span*lengths.Float64() }}
		}
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
	if sc.ShapeRate != 0 || sc.ShapeB0 != 0 {
		// A bucket shallower than the longest packet never passes it.
		if sc.ShapeRate <= 0 || sc.ShapeB0 < longest {
			return nil, fmt.Errorf("shaper needs a positive shape_rate and a shape_b0 of at least the %g-bit packet, got %g and %g",
				longest, sc.ShapeRate, sc.ShapeB0)
		}
		src = traffic.NewShaped(src, sc.ShapeRate, sc.ShapeB0)
	}
	return src, nil
}
