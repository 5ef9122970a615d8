// Package system is the one builder of admission-controlled
// Leave-in-Time networks: a simulator, a network of servers, one
// admission controller per server, and connection establishment over
// them. The root package re-exports it as lit.System; it lives here so
// that the internal packages which assemble networks (the figure
// scenarios, the declarative runner) build on the same code instead of
// each carrying their own copy — they cannot import the root, which
// imports them.
package system

import (
	"fmt"
	"math"

	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/traffic"
)

// Config parametrizes a System.
type Config struct {
	// LMax is the network-wide maximum packet length in bits
	// (required).
	LMax float64
	// Classes and Proc select the admission control procedure
	// installed at every server: procedure Proc (1 or 2) with these
	// delay classes. Leaving Classes nil installs procedure 1 with a
	// single class covering the full link (the VirtualClock special
	// case d = L/r). Procedure 3 takes no classes: every request brings
	// its own fixed d (ConnectRequest.D).
	Classes []admission.Class
	Proc    int
}

// Check is the dry run of building a system of this configuration: it
// reports what New refuses about the configuration, AddServer about a
// link of the given capacity and propagation delay, and Connect about
// each request routed over that link whatever else is established —
// everything but an empty route and the outcome of the admission rules.
func (c Config) Check(name string, capacity, gamma float64, reqs ...ConnectRequest) error {
	k, err := c.Checker(name, capacity, gamma)
	if err != nil {
		return err
	}
	for _, req := range reqs {
		if err := k.Check(req); err != nil {
			return err
		}
	}
	return nil
}

// A Checker is Check for one link, built once: it holds the link's
// admission controller, so the requests of many sessions over the link
// are checked without building one each.
type Checker struct {
	cfg  Config
	ctrl admission.Controller
}

// Checker reports what New refuses about the configuration and
// AddServer about a link of the given capacity and propagation delay,
// and returns the link's Checker.
func (c Config) Checker(name string, capacity, gamma float64) (Checker, error) {
	if err := c.validate(); err != nil {
		return Checker{}, err
	}
	ctrl, err := c.controller(name, capacity, gamma)
	if err != nil {
		return Checker{}, err
	}
	return Checker{cfg: c, ctrl: ctrl}, nil
}

// Check reports what Connect refuses about a request routed over the
// link whatever else is established.
func (k Checker) Check(req ConnectRequest) error {
	r, err := k.cfg.resolve(&req)
	if err != nil {
		return err
	}
	return k.ctrl.Check(r.Spec, r.Class, r.Opts)
}

// validate reports a nonpositive LMax or an unknown procedure.
// (Malformed classes are reported per server, because the procedures
// tie them to the link capacity: R_P = C.)
func (c Config) validate() error {
	if c.LMax <= 0 {
		return fmt.Errorf("lit: SystemConfig.LMax must be positive, got %g", c.LMax)
	}
	if c.Proc < 0 || c.Proc > 3 {
		return fmt.Errorf("lit: unsupported admission procedure %d", c.Proc)
	}
	return nil
}

// controller validates a server's link parameters (capacity positive
// and finite, propagation delay nonnegative and finite) and builds its
// admission controller.
func (c Config) controller(name string, capacity, gamma float64) (admission.Controller, error) {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("lit: server %s: capacity must be positive and finite, got %g", name, capacity)
	}
	if !(gamma >= 0) || math.IsInf(gamma, 1) {
		return nil, fmt.Errorf("lit: server %s: propagation delay must be nonnegative and finite, got %g", name, gamma)
	}
	ctrl, err := admission.New(c.Proc, capacity, c.Classes)
	if err != nil {
		return nil, fmt.Errorf("lit: server %s: %w", name, err)
	}
	return ctrl, nil
}

// resolve applies the request's defaults and checks it against the
// network: the part of Connect's validation that precedes the
// per-server admission tests.
func (c *Config) resolve(req *ConnectRequest) (admission.Request, error) {
	if req.Rate <= 0 {
		return admission.Request{}, fmt.Errorf("lit: rate must be positive")
	}
	lMax := req.LMax
	if lMax == 0 {
		lMax = c.LMax
	}
	lMin := req.LMin
	if lMin == 0 {
		lMin = lMax
	}
	if lMax > c.LMax {
		return admission.Request{}, fmt.Errorf("lit: session LMax %g exceeds network LMax %g", lMax, c.LMax)
	}
	// A bucket shallower than one packet passes nothing: b0/r (eq. 14)
	// would not bound D_ref.
	if !(req.B0 >= 0) || math.IsInf(req.B0, 1) || (req.B0 > 0 && req.B0 < lMax) {
		return admission.Request{}, fmt.Errorf("lit: b0 %g is neither 0 nor a finite depth of at least the session's LMax %g", req.B0, lMax)
	}
	class := req.Class
	if class == 0 {
		class = 1
	}
	return admission.Request{
		Spec:          admission.SessionSpec{Rate: req.Rate, LMax: lMax, LMin: lMin},
		Class:         class,
		Opts:          admission.Options{Eps: req.Eps, PerPacket: !req.FixedD, D: req.D},
		JitterControl: req.JitterControl,
		B0:            req.B0,
	}, nil
}

// System bundles a simulator, a network of Leave-in-Time servers, and
// per-server admission control into one object, so that assembling the
// paper's scenarios (or your own) takes a few lines. Lower-level
// control is always available through Sim and Net.
type System struct {
	Sim *event.Simulator
	Net *network.Network
	cfg Config

	servers []*Server
	byPort  map[*network.Port]*Server
	// path and cfgs are a missed Connect's scratch: the route as
	// admission.Establish takes it and the per-hop grants as
	// Network.AddSession copies them into each discipline. The class
	// memo keeps the arrays of the call it stores and hands its old ones
	// back, so once warm a Connect allocates nothing for them.
	path []admission.Link
	cfgs []network.SessionPort
	// last[m-1] is class m's memo of its last established call; a class
	// out of range shares the nearest class's (its key differs).
	last    []call
	nextID  int
	metrics *metrics.Registry
}

// call is a class's memo of one established call: the resolved request
// (Spec.ID zero), its route's servers, and what establishing it built
// from them: the route as admission walks it, the port list, the
// commitments read off its grants and the grants as the network takes
// them. By the isolation property those are a function of the request
// and the route's servers alone, so a call with the same request over
// the same servers is owed the same Bounds: it shares them and the
// port list (as its Session.Route), and only books itself at path's
// controllers. servers were validated when the memo was stored, so a
// route that matches them needs no lookup. The memo holds one call per
// class, so a run of mixed requests establishes every call afresh and
// never holds more memory.
type call struct {
	req     admission.Request
	servers []*Server
	path    []admission.Link
	cfgs    []network.SessionPort
	ports   []*network.Port
	b       *Bounds
}

// same reports whether a request over route is the memo's call.
func (c *call) same(req *admission.Request, route []*Server) bool {
	if c.b == nil || c.req != *req || len(c.servers) != len(route) {
		return false
	}
	for i, srv := range route {
		if srv != c.servers[i] {
			return false
		}
	}
	return true
}

// holds reports whether route is the memo's port list itself, which
// sessions the memo's calls share.
func (c *call) holds(route []*network.Port) bool {
	return len(route) > 0 && len(c.ports) == len(route) && &c.ports[0] == &route[0]
}

// Server is one Leave-in-Time server (a node's outgoing link) together
// with its admission controller.
type Server struct {
	Port *network.Port
	// Capacity and Gamma echo the construction parameters.
	Capacity, Gamma float64

	ctrl admission.Controller
}

// New returns an empty system. The configuration is validated here
// rather than at first use: an invalid config (nonpositive LMax,
// unknown procedure) is reported as an error so callers can surface it
// instead of crashing mid-setup.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sim := event.New()
	return &System{
		Sim:    sim,
		Net:    network.New(sim, cfg.LMax),
		cfg:    cfg,
		byPort: make(map[*network.Port]*Server),
		last:   make([]call, max(len(cfg.Classes), 1)),
	}, nil
}

// AttachMetrics makes the system count into reg: the event engine, the
// packet pool, every server port and scheduler, and the admission
// controllers (see internal/metrics), including servers added later.
// Counting costs one nil-check branch per instrumented site and does
// not perturb event ordering, so an instrumented run is bit-identical
// to a bare one. Call before Run.
func (s *System) AttachMetrics(reg *metrics.Registry) {
	s.metrics = reg
	s.Net.EnableMetrics(reg)
	for _, srv := range s.servers {
		srv.ctrl.SetMetrics(reg.Arena())
	}
}

// EnableMetrics attaches a fresh run-telemetry registry (see
// AttachMetrics) and returns it; enabling is idempotent. Read the
// counters after the run with the registry's Snapshot(now).
func (s *System) EnableMetrics() *metrics.Registry {
	if s.metrics == nil {
		s.AttachMetrics(metrics.NewRegistry())
	}
	return s.metrics
}

// AddServer creates a Leave-in-Time server with an outgoing link of the
// given capacity (bits/s) and propagation delay (seconds), guarded by
// the system's admission procedure. It returns an error — leaving the
// system unchanged — when the link parameters or the system's class
// hierarchy are invalid for that capacity (the procedures require
// R_P = C and positive sigma terms).
func (s *System) AddServer(name string, capacity, gamma float64) (*Server, error) {
	return s.AddServerQueue(name, capacity, gamma, func(c, lMax float64) network.Discipline {
		return core.New(core.Config{Capacity: c, LMax: lMax})
	})
}

// AddServerQueue is AddServer with the server's discipline built by
// disc, from the link capacity and the system's L_MAX, in place of the
// configured Leave-in-Time queue. disc runs only once the link has
// passed the checks AddServer makes.
func (s *System) AddServerQueue(name string, capacity, gamma float64, disc func(capacity, lMax float64) network.Discipline) (*Server, error) {
	// Build the admission controller before touching the network so a
	// rejected configuration leaves no port behind.
	ctrl, err := s.cfg.controller(name, capacity, gamma)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		Port:     s.Net.NewPort(name, capacity, gamma, disc(capacity, s.cfg.LMax)),
		Capacity: capacity,
		Gamma:    gamma,
		ctrl:     ctrl,
	}
	if s.metrics != nil {
		ctrl.SetMetrics(s.metrics.Arena())
	}
	s.servers = append(s.servers, srv)
	s.byPort[srv.Port] = srv
	return srv, nil
}

// Servers returns the servers in creation order.
func (s *System) Servers() []*Server { return s.servers }

// Admission returns the server's admission controller, for a signaling
// path that admits and releases calls there hop by hop.
func (srv *Server) Admission() admission.Controller { return srv.ctrl }

// Request is the admission request Connect makes of every server of the
// route for req: its defaults applied and its declaration checked.
func (s *System) Request(req ConnectRequest) (admission.Request, error) { return s.cfg.resolve(&req) }

// ConnectRequest describes a connection to establish.
type ConnectRequest struct {
	// Rate is the reserved rate r_s in bits/s (required).
	Rate float64
	// Route is the ordered list of servers the session traverses
	// (required, non-empty).
	Route []*Server
	// Source generates the session's packets; a nil Source emits none
	// (a traffic.Trace replays a hand-built schedule).
	Source traffic.Source
	// JitterControl assigns the session a delay regulator at every
	// node.
	JitterControl bool
	// Class is the delay class (1-based) when the system has classes;
	// 0 means class 1.
	Class int
	// LMax and LMin bound the session's packet lengths in bits; a zero
	// LMax defaults to the network LMax, a zero LMin to LMax.
	LMax, LMin float64
	// Eps is the nonnegative constant added to d (rules 1.3/2.3).
	Eps float64
	// FixedD selects rule 1.3a/2.3a (one d for all packets) instead of
	// the per-packet-length rule.
	FixedD bool
	// D is the fixed service parameter d_s (seconds) the session asks of
	// procedure 3, which takes it in place of Class, Eps and FixedD;
	// procedures 1 and 2 ignore it.
	D float64
	// B0 optionally declares that the source conforms to a token
	// bucket (Rate, B0 bits), at least one LMax deep; when set,
	// Bounds.DelayBound and related fields are computed with
	// D_ref_max = B0/Rate (eq. 14).
	B0 float64
}

// Bounds carries the service commitments computed for an established
// connection. Connect may return one Bounds to many calls: it is
// read-only.
type Bounds = admission.Bounds

// Connect establishes a connection: it runs the admission tests at
// every server on the route and, if all pass, wires the session and
// returns its service commitments. On rejection no state is left
// behind at any server. A route naming a server this system did not
// build (or nil) is refused before any test runs. Calls with the same
// request over the same route may share one Bounds and one
// Session.Route; neither may be modified.
func (s *System) Connect(req ConnectRequest) (*network.Session, *Bounds, error) {
	if len(req.Route) == 0 {
		return nil, nil, fmt.Errorf("lit: empty route")
	}
	areq, rerr := s.cfg.resolve(&req)
	memo := &s.last[min(max(req.Class, 1), len(s.last))-1]
	if rerr == nil && memo.same(&areq, req.Route) {
		s.nextID++
		areq.Spec.ID = s.nextID
		if err := admission.Reserve(memo.path, &areq, nil); err != nil {
			return nil, nil, fmt.Errorf("lit: %w", err)
		}
		return s.Net.AddSession(areq.Spec.ID, req.Rate, req.JitterControl, memo.ports, memo.cfgs, req.Source), memo.b, nil
	}
	s.path = s.path[:0]
	for i, srv := range req.Route {
		if srv == nil || s.byPort[srv.Port] != srv {
			return nil, nil, fmt.Errorf("lit: route hop %d is not a server of this system", i)
		}
		s.path = append(s.path, admission.Link{Name: srv.Port.Name, Ctrl: srv.ctrl, C: srv.Capacity, Gamma: srv.Gamma})
	}
	if rerr != nil {
		return nil, nil, rerr
	}
	key := areq
	s.nextID++
	areq.Spec.ID = s.nextID
	b, err := admission.Establish(s.path, s.cfg.LMax, areq)
	if err != nil {
		return nil, nil, fmt.Errorf("lit: %w", err)
	}
	ports := make([]*network.Port, len(req.Route)) // kept: it becomes Session.Route
	for i, srv := range req.Route {
		ports[i] = srv.Port
	}
	s.cfgs = s.cfgs[:0]
	for _, a := range b.Assignments {
		s.cfgs = append(s.cfgs, network.SessionPort{D: a.D, DMax: a.DMax})
	}
	// Field by field, as ClassController.assignment stores its grant: a
	// whole-struct store is a write-barrier move. The memo takes the
	// scratch arrays and gives its own back.
	memo.servers = append(memo.servers[:0], req.Route...)
	s.path, memo.path = memo.path[:0], s.path
	s.cfgs, memo.cfgs = memo.cfgs[:0], s.cfgs
	memo.req, memo.ports, memo.b = key, ports, b
	return s.Net.AddSession(areq.Spec.ID, req.Rate, req.JitterControl, ports, memo.cfgs, req.Source), b, nil
}

// Teardown releases a session's reservations at every server of its
// route. The session must not be started (or must have finished
// emitting); in-flight packets still drain. A session whose route is
// a class memo's port list is released at the memo's controllers.
func (s *System) Teardown(sess *network.Session) {
	for i := range s.last {
		if m := &s.last[i]; m.holds(sess.Route) {
			for _, l := range m.path {
				l.Ctrl.Remove(sess.ID)
			}
			return
		}
	}
	for _, p := range sess.Route {
		if srv := s.byPort[p]; srv != nil {
			srv.ctrl.Remove(sess.ID)
		}
	}
}

// Disconnect fully removes an established session: it releases the
// admission reservations along its route (like Teardown) and frees the
// routing and scheduling state there. The session must be drained —
// its source stopped and no packets of it left in the network; call it
// a grace period (at least the delay bound) after the source's stop
// time.
func (s *System) Disconnect(sess *network.Session) {
	s.Teardown(sess)
	s.Net.RemoveSession(sess)
}

// Run starts every session not yet started at the current simulated
// time, with duration as its sources' stop time, and processes events
// up to that time. duration is an absolute horizon, not a length:
// Run(10) then Run(20) runs the clock from 0 to 20, and a session
// connected between the two calls starts emitting at 10 (a session
// started by the first call keeps its stop time of 10).
func (s *System) Run(duration float64) {
	now := s.Sim.Now()
	for _, sess := range s.Net.Sessions() {
		if !sess.Started() {
			sess.Start(now, duration)
		}
	}
	s.Sim.Run(duration)
}
