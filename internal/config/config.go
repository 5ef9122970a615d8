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
// litcheck -replay accepts any document Parse accepts.
//
// A document is built on a system.System: Validate refuses whatever the
// System's own validation refuses, so the only thing Prepare can still
// refuse is a session the admission rules reject. Run is the one
// runner: litrun and litserve run a document on it, and litcheck checks
// the same network under each discipline of its battery, with its
// checks layered on between Prepare and Start. A plan with a churn
// cycle gives every session a signaling path, which its releases and
// re-SETUPs walk hop by hop.
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
	"leaveintime/internal/sched"
	"leaveintime/internal/signaling"
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
	// the run: link/node outage windows, source stalls, and churn, a
	// session's mid-run release and optional re-SETUP. Session references
	// are session ids, port references server names, node references a
	// server's from (its own name when it declares no link).
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
	// Section 3.3 bound b0 determines: the loss-free provisioning. A
	// session a churn cycle sets up again comes back uncapped.
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

// Parse decodes a scenario document and checks that it is valid.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
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

// maxSessionID is the largest id a document may give a session. A run
// numbers its network sessions 1, 2, … whatever their ids; the bound
// dates from when the harness handed ids to the network as they stood,
// where an id in the trillions exhausted memory, and keeps every tool
// refusing what it refused then.
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

// Conn is one session of the document as a run holds it. Prepare
// connects the sessions in document order, so the document's i-th
// session is network session i+1, and a session set up again keeps its
// id.
type Conn struct {
	Def *Session
	// Sess is the session's latest incarnation in the network; Emitted
	// and Delivered count what the incarnations before it emitted and
	// delivered.
	Sess               *network.Session
	Emitted, Delivered int64
	Bounds             *system.Bounds

	// sig is the session's signaling path, made for a plan with a churn
	// cycle; nil otherwise.
	sig    *signaling.Signaler
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
	reg     *metrics.Registry
	stream  *rng.Rand // the scenario's; a source set up again draws from it
	servers map[string]*system.Server
	all     []Conn
	byID    map[int]*Conn
	started bool
}

// Prepare builds the scenario without running it, with the document's
// Leave-in-Time queue, exact or approximate, at every server. When reg
// is non-nil the run counts telemetry into it exactly as RunWithMetrics
// does.
func (s *Scenario) Prepare(reg *metrics.Registry) (*Run, error) {
	return s.PrepareRow(reg, sched.Row{})
}

// PrepareRow is Prepare with every server's discipline built by row
// instead. A zero row is the document's Leave-in-Time queue. A framing
// discipline's frame is one maximum-length packet at the slowest
// session's rate, so that every session earns a slot in every frame.
func (s *Scenario) PrepareRow(reg *metrics.Registry, row sched.Row) (*Run, error) {
	sys, err := system.New(s.systemConfig())
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if reg != nil {
		sys.AttachMetrics(reg)
	}
	frame := s.LMax / s.minRate()
	servers := map[string]*system.Server{}
	for i := range s.Servers {
		sv := &s.Servers[i]
		disc := row
		if disc.New == nil {
			disc = sched.Lookup("lit")
			if sv.Approximate {
				disc = sched.Lookup("lit-approx")
			}
		}
		srv, err := sys.AddServerQueue(sv.key(), sv.Capacity, sv.Gamma, func(capacity, lMax float64) network.Discipline {
			return disc.New(capacity, lMax, frame)
		})
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		servers[sv.key()] = srv
	}

	run := &Run{sc: s, sys: sys, reg: reg, stream: rng.New(s.Seed), servers: servers,
		all: make([]Conn, len(s.Sessions)), byID: make(map[int]*Conn, len(s.Sessions))}
	churn := s.Faults != nil && len(s.Faults.Churn) > 0
	for i := range s.Sessions {
		sc := &s.Sessions[i]
		req := sc.Request()
		for _, hopName := range sc.Route {
			req.Route = append(req.Route, servers[hopName])
		}
		if req.Source, err = sc.BuildSource(run.stream); err != nil {
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
		c := &run.all[i]
		*c = Conn{Def: sc, Sess: sess, Bounds: b}
		if churn {
			c.sig = run.signaler(req.Route, sess.ID)
		}
		run.byID[sc.id(i)] = c
	}
	if !s.Faults.Empty() {
		faults.Inject(sys.Sim, (*runActions)(run), s.Faults)
	}
	return run, nil
}

// minRate is the smallest session rate, 0 when there is none.
func (s *Scenario) minRate() float64 {
	least := 0.0
	for i := range s.Sessions {
		if r := s.Sessions[i].Rate; least == 0 || r < least {
			least = r
		}
	}
	return least
}

// signaler builds a session's signaling path over its route: one node
// per hop with the hop's admission controller behind it, the hop's link
// deciding whether a message is lost. It adopts the reservation Connect
// made, so a release walks the path hop by hop.
func (r *Run) signaler(route []*system.Server, id int) *signaling.Signaler {
	path := make([]*signaling.Node, len(route))
	nodes := make([]int, len(route))
	for i, srv := range route {
		path[i] = &signaling.Node{Name: srv.Port.Name, Admit: srv.Admission(), Gamma: srv.Gamma}
		nodes[i] = i
	}
	sig := signaling.New(r.sys.Sim, path)
	sig.LinkDown = func(i int) bool { return route[i].Port.LinkDown() }
	sig.OnLost = func(kind string, node, _ int) { route[node].Port.NoteSignalingLoss(kind, id, node) }
	// A refused re-SETUP backs off and retries, deterministically: a
	// refusal under churn is usually another session's RELEASE that has
	// not reached every node yet.
	d := r.sc.Duration
	sig.Retry = &signaling.Retry{Max: 3, Base: 0.01 * d, Cap: 0.05 * d}
	if err := sig.Adopt(id, nodes); err != nil {
		panic(err) // a fresh signaler holds nothing
	}
	return sig
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

// System exposes the network the run built, for layers set between
// Prepare and Start: a tracer, probes, pool debugging.
func (r *Run) System() *system.System { return r.sys }

// Conns returns the run's sessions in document order.
func (r *Run) Conns() []Conn { return r.all }

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
	for _, c := range r.all {
		c.Sess.Start(0, r.sc.Duration)
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
	c := r.byID[id]
	if c == nil || c.purged {
		return false
	}
	r.release(c)
	return true
}

// release takes the session out of the network and returns its
// reservation: through a RELEASE walking its signaling path when it has
// one, which a link fault can stop short, at once otherwise.
func (r *Run) release(c *Conn) {
	c.purged = true
	r.sys.Net.DropSession(c.Sess)
	if c.sig != nil {
		_ = c.sig.Teardown(c.Sess.ID, nil) // in the network, so established: it cannot fail
	} else {
		r.sys.Teardown(c.Sess)
	}
}

// Release returns every reservation the run still holds, each through
// the path that made it; a signaling path's RELEASE takes simulated
// time to walk, so run the engine after it. It is the end of a drained
// run, after which every server's admission controller is empty.
func (r *Run) Release() {
	for i := range r.all {
		c := &r.all[i]
		switch {
		case c.sig != nil:
			if c.sig.Established(c.Sess.ID) {
				_ = c.sig.Teardown(c.Sess.ID, nil)
			}
		case !c.purged:
			c.purged = true
			r.sys.Teardown(c.Sess)
		}
	}
}

// count adds one to a fault counter when the run has a registry.
func (r *Run) count(h metrics.Handle) {
	if r.reg != nil {
		r.reg.Arena().Inc(h)
	}
}

// runActions adapts Run to the fault injector.
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

// StallSession silences a session in the network; a released one has
// no source to stall.
func (a *runActions) StallSession(id int, on bool) {
	if c := a.byID[id]; !c.purged {
		c.Sess.SetStalled(on)
	}
}

// ReleaseSession is a churn cycle's release: the session leaves the
// network at once, and its RELEASE walks the route. A RELEASE lost to a
// link fault leaves the nodes it did not reach reserved, for the
// re-SETUP or Release to reclaim.
func (a *runActions) ReleaseSession(id int) {
	r := (*Run)(a)
	r.count(metrics.HFaultReleases)
	if c := r.byID[id]; !c.purged {
		r.release(c)
	} else {
		_ = c.sig.Teardown(c.Sess.ID, nil)
	}
}

// ResetupSession is a churn cycle's return: a fresh SETUP through
// admission control at every hop.
func (a *runActions) ResetupSession(id int) { (*Run)(a).resetup(a.byID[id]) }

func (r *Run) resetup(c *Conn) {
	id := c.Sess.ID
	if c.sig.Established(id) {
		// The RELEASE was lost mid-walk and part of the route still
		// holds the old reservation: retry it, and SETUP once it is
		// through. The retry is paced so that a RELEASE that keeps dying
		// on a link still down advances simulated time; each attempt
		// frees at least one node, so the route's length bounds them.
		_ = c.sig.Teardown(id, func() {
			r.sys.Sim.After(0.005*r.sc.Duration, func() { r.resetup(c) })
		})
		return
	}
	req, err := r.sys.Request(c.Def.Request())
	if err != nil {
		panic(err) // Connect took the same request
	}
	req.Spec.ID = id
	c.sig.Establish(signaling.Request{Spec: req.Spec, Class: req.Class, Opts: req.Opts}, func(res signaling.Result) {
		if !res.Accepted {
			// Refused after the retries, or a message was lost: the
			// session stays out, and a reservation a lost ACCEPT or
			// REJECT stranded waits for Release.
			r.count(metrics.HFaultResetupRejects)
			return
		}
		r.count(metrics.HFaultResetups)
		cfgs := make([]network.SessionPort, len(res.Assignments))
		for i, g := range res.Assignments {
			cfgs[i] = network.SessionPort{D: g.D, DMax: g.DMax}
		}
		src, err := c.Def.BuildSource(r.stream)
		if err != nil {
			panic(err) // Prepare built it once already
		}
		c.Emitted += c.Sess.Emitted
		c.Delivered += c.Sess.Delivered
		c.Sess = r.sys.Net.AddSession(id, c.Def.Rate, c.Def.JitterControl, c.Sess.Route, cfgs, src)
		c.purged = false
		c.Sess.Start(r.sys.Sim.Now(), r.sc.Duration)
	})
}

// Finish computes the per-session results at the current instant. An
// unnamed session is reported as s<id>. A session set up again reports
// its deliveries summed over its incarnations, and its delays from the
// latest.
func (r *Run) Finish() *Result {
	s := r.sc
	res := &Result{Duration: s.Duration}
	for i, c := range r.all {
		sr := SessionResult{
			Name:       c.Def.Name,
			Delivered:  c.Delivered + c.Sess.Delivered,
			MaxDelay:   c.Sess.Delays.Max(),
			MeanDelay:  c.Sess.Delays.Mean(),
			Jitter:     c.Sess.Delays.Jitter(),
			BoundHolds: true,
		}
		if sr.Name == "" {
			sr.Name = fmt.Sprintf("s%d", c.Def.id(i))
		}
		if c.Def.B0 > 0 {
			sr.DelayBound = c.Bounds.DelayBound
			sr.JitterBound = c.Bounds.JitterBound
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
