// Package serve turns the Leave-in-Time library into a long-lived
// scenario service: an HTTP daemon (stdlib net/http + JSON only) that
// hosts many concurrent admission systems, accepts SETUP/RELEASE/Adopt
// calls and scenario submissions over a wire API, and streams telemetry
// snapshots and trace events while simulations run.
//
// Robustness is the design center, not an afterthought:
//
//   - Every request has a deadline, measured and counted: a handler
//     that returns past it, or whose client has gone, is counted in
//     deadline_expired. No handler waits on anything but its own
//     connection, so none is abandoned; the http.Server's read and
//     write timeouts bound slow clients. Clients
//     may send an X-Request-Deadline header (unix seconds, their clock);
//     the daemon clamps it into a sane window, so clock-skewed clients
//     degrade to the default timeout instead of to an instantly-expired
//     or never-expiring request.
//   - Admission requests route through the network-calculus fast path
//     (ClassController.AdmitGated with a CurveGate): one
//     O(classes+segments) curve evaluation per call, so under overload
//     the daemon sheds load by rejecting cheaply instead of queueing
//     expensively.
//   - Scenario work sits in a bounded queue with watermark
//     backpressure: past the high watermark submissions get 429 plus a
//     Retry-After hint that backs off exponentially (capped) with the
//     shed streak, and acceptance resumes only below the low watermark.
//   - Simulation workers wrap every run in the event-engine watchdog
//     and a panic recovery, so a poisoned scenario degrades to a
//     replayable repro document without taking down sibling systems.
//   - Graceful drain checkpoints unfinished scenario jobs to disk;
//     a restarted daemon restores and re-runs them. Runs are
//     deterministic, so restore-and-rerun reproduces byte-identical
//     telemetry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leaveintime/internal/admission"
	"leaveintime/internal/calculus"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
)

// Options configures a Daemon. The zero value is usable: every field
// has a production-shaped default.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Workers is the number of scenario workers (default 2).
	Workers int
	// QueueDepth bounds the scenario work queue (default 64).
	QueueDepth int
	// HighWater and LowWater are the backpressure watermarks on the
	// queue depth: at or above HighWater submissions are shed with 429,
	// and acceptance resumes only at or below LowWater. Defaults:
	// 3/4 and 1/2 of QueueDepth.
	HighWater, LowWater int
	// RequestTimeout bounds every handler (default 5s). It is also the
	// ceiling for client-supplied deadlines.
	RequestTimeout time.Duration
	// Slice is how many simulated seconds a worker advances a run
	// between control polls (default 0.25, also for a NaN or infinite
	// value, which would leave no poll before the run ends).
	Slice float64
	// Watchdog bounds every scenario run; zero fields are defaulted to
	// MaxEvents 50e6 and MaxWall 30s so a poisoned scenario cannot
	// wedge a worker forever.
	Watchdog event.Watchdog
	// CheckpointDir, when non-empty, enables drain checkpoints and
	// poisoned-scenario repro files.
	CheckpointDir string
	// RetryAfterBase and RetryAfterCap shape the 429 Retry-After hint:
	// the hint doubles with the consecutive-shed streak from Base up to
	// Cap. Defaults 1s and 32s.
	RetryAfterBase, RetryAfterCap time.Duration
	// MaxBody bounds request bodies in bytes (default 1<<20).
	MaxBody int64
}

func (o *Options) defaults() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.HighWater <= 0 {
		o.HighWater = o.QueueDepth * 3 / 4
	}
	if o.LowWater <= 0 {
		o.LowWater = o.QueueDepth / 2
	}
	if o.HighWater > o.QueueDepth {
		o.HighWater = o.QueueDepth
	}
	if o.LowWater >= o.HighWater {
		o.LowWater = o.HighWater - 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if !(o.Slice > 0) || math.IsInf(o.Slice, 1) {
		o.Slice = 0.25
	}
	if o.Watchdog.MaxEvents == 0 {
		o.Watchdog.MaxEvents = 50e6
	}
	if o.Watchdog.MaxWall == 0 {
		o.Watchdog.MaxWall = 30 * time.Second
	}
	if o.RetryAfterBase <= 0 {
		o.RetryAfterBase = time.Second
	}
	if o.RetryAfterCap <= 0 {
		o.RetryAfterCap = 32 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
}

// Daemon is the scenario service.
type Daemon struct {
	opts Options
	reg  *metrics.Registry
	ar   *metrics.Arena

	mu      sync.Mutex
	systems map[string]*system

	jmu       sync.Mutex
	jobs      map[string]*job
	jobOrder  []string // submission order, for checkpoints
	queue     chan *job
	accepting bool
	draining  bool

	shedStreak atomic.Int64

	srv      *http.Server
	listener net.Listener
	workers  sync.WaitGroup
	stop     chan struct{}
	started  time.Time
}

// system is one hosted admission system: a single Leave-in-Time server
// guarded by the rule-based procedure plus the network-calculus curve
// gate, and the book of live sessions by the client's id (needed to
// release the gate's share on RELEASE).
//
// The controller's id table spans its live ids, so it is not handed the
// client's id, which may be anything up to 2^63: each session is booked
// there under its key, the next number of the system's own sequence.
type system struct {
	mu       sync.Mutex
	name     string
	capacity float64
	lmax     float64
	ctrl     *admission.ClassController
	gate     *admission.CurveGate
	sessions map[int]sessionEntry
	next     int
}

type sessionEntry struct {
	key         int
	rate, burst float64
}

// New builds a daemon (not yet listening).
func New(opts Options) *Daemon {
	opts.defaults()
	reg := metrics.NewRegistry()
	d := &Daemon{
		opts:      opts,
		reg:       reg,
		ar:        reg.Arena(),
		systems:   make(map[string]*system),
		jobs:      make(map[string]*job),
		queue:     make(chan *job, opts.QueueDepth),
		accepting: true,
		stop:      make(chan struct{}),
		started:   time.Now(),
	}
	return d
}

// Start restores any checkpoint, binds the listener, and launches the
// workers and the HTTP server. It returns once the daemon is serving.
func (d *Daemon) Start() error {
	if err := d.restore(); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	ln, err := net.Listen("tcp", d.opts.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	d.listener = ln
	d.started = time.Now()
	d.srv = &http.Server{
		Handler: d.Handler(),
		// Slow and stalled clients are bounded at every phase: header
		// read, body read, and response write.
		ReadHeaderTimeout: d.opts.RequestTimeout,
		ReadTimeout:       2 * d.opts.RequestTimeout,
		WriteTimeout:      2 * d.opts.RequestTimeout,
		IdleTimeout:       4 * d.opts.RequestTimeout,
	}
	for i := 0; i < d.opts.Workers; i++ {
		d.workers.Add(1)
		go d.worker()
	}
	go d.srv.Serve(ln) //nolint:errcheck — Serve always returns non-nil on Shutdown
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (d *Daemon) Addr() string { return d.listener.Addr().String() }

// Drain is the SIGTERM path: stop accepting, stop the HTTP server,
// interrupt running jobs at their next slice boundary, and checkpoint
// every unfinished job to disk. It is idempotent.
func (d *Daemon) Drain(ctx context.Context) error {
	d.jmu.Lock()
	if d.draining {
		d.jmu.Unlock()
		return nil
	}
	d.draining = true
	d.accepting = false
	d.jmu.Unlock()

	err := d.srv.Shutdown(ctx)
	close(d.stop)
	d.workers.Wait()
	if cerr := d.checkpoint(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// --- HTTP plumbing ---------------------------------------------------

// Handler is the daemon's wire API, every route in its envelope (wrap);
// Start serves it.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", d.wrap(d.handleHealthz))
	mux.HandleFunc("GET /v1/stats", d.wrap(d.handleStats))
	mux.HandleFunc("POST /v1/systems", d.wrap(d.handleCreateSystem))
	mux.HandleFunc("POST /v1/systems/{name}/setup", d.wrap(d.handleSetup))
	mux.HandleFunc("POST /v1/systems/{name}/release", d.wrap(d.handleRelease))
	mux.HandleFunc("POST /v1/systems/{name}/adopt", d.wrap(d.handleAdopt))
	mux.HandleFunc("POST /v1/scenarios", d.wrap(d.handleSubmit))
	mux.HandleFunc("GET /v1/scenarios/{id}", d.wrap(d.handleJobStatus))
	mux.HandleFunc("GET /v1/scenarios/{id}/telemetry", d.wrap(d.handleJobTelemetry))
	mux.HandleFunc("GET /v1/scenarios/{id}/trace", d.wrap(d.handleJobTrace))
	mux.HandleFunc("POST /v1/scenarios/{id}/purge", d.wrap(d.handleJobPurge))
	mux.HandleFunc("DELETE /v1/scenarios/{id}", d.wrap(d.handleJobKill))
	return mux
}

// wrap applies the per-request robustness envelope: a counted request,
// a bounded body, and a deadline derived from the client's
// X-Request-Deadline, counted in deadline_expired when the handler
// returns past it or the client has gone. No handler waits on anything
// but its own connection, so there is nothing to abandon and the
// deadline is measured, not enforced: the http.Server's read and write
// timeouts are what bound a slow client.
func (d *Daemon) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d.ar.AtomicInc(metrics.HServeRequests)
		r.Body = http.MaxBytesReader(w, r.Body, d.opts.MaxBody)
		deadline, ok := d.deadline(r)
		if !ok {
			d.ar.AtomicInc(metrics.HServeMalformed)
			httpError(w, http.StatusBadRequest, "malformed X-Request-Deadline")
			return
		}
		h(w, r)
		if time.Now().After(deadline) || r.Context().Err() != nil {
			d.ar.AtomicInc(metrics.HServeDeadlineExpired)
		}
	}
}

// deadline is the request's deadline: now plus RequestTimeout, or the
// client's X-Request-Deadline clamped into [now+50 ms, now+RequestTimeout]
// so that clock skew cannot make a request already expired or unbounded.
// It reports false for a header that is not a number.
func (d *Daemon) deadline(r *http.Request) (time.Time, bool) {
	now := time.Now()
	timeout := d.opts.RequestTimeout
	if raw := r.Header.Get("X-Request-Deadline"); raw != "" {
		unix, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(unix) {
			return time.Time{}, false
		}
		// Clamp in seconds, before the conversion to a Duration can
		// overflow: a deadline in the past (skewed-behind clock) gets a
		// minimal grace window rather than instant expiry; a far-future
		// one (skewed-ahead, or milliseconds sent for seconds) is capped
		// at the server's own timeout.
		left := math.Max(unix-float64(now.UnixNano())/1e9, 0.05)
		if left < d.opts.RequestTimeout.Seconds() {
			timeout = time.Duration(left * float64(time.Second))
		}
	}
	return now.Add(timeout), true
}

type errorBody struct {
	Error string `json:"error"`
}

// jsonContentType is every response's Content-Type value. Responses
// share it, where Header().Set would allocate a slice for each; net/http
// copies the header before writing it and never writes into the slice.
var jsonContentType = []string{"application/json"}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// --- wire types ------------------------------------------------------

// CreateSystemRequest declares one hosted admission system.
type CreateSystemRequest struct {
	Name     string  `json:"name"`
	Capacity float64 `json:"capacity"`
	LMax     float64 `json:"lmax"`
	Proc     int     `json:"proc,omitempty"` // 1 (default) or 2
	Classes  []struct {
		R     float64 `json:"r"`
		Sigma float64 `json:"sigma"`
	} `json:"classes,omitempty"`
	// BudgetS is the curve gate's aggregate FIFO delay budget in
	// seconds (0 = stability-only).
	BudgetS float64 `json:"budget_s,omitempty"`
}

// SetupRequest is one SETUP (or Adopt) call.
type SetupRequest struct {
	ID    int     `json:"id"`
	Rate  float64 `json:"rate"`
	LMax  float64 `json:"lmax"`
	LMin  float64 `json:"lmin,omitempty"`
	Class int     `json:"class,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
}

// SetupResponse reports an accepted SETUP's assignment.
type SetupResponse struct {
	Accepted bool    `json:"accepted"`
	DMax     float64 `json:"d_max_s"`
	// DelayBound is the curve gate's aggregate FIFO delay bound after
	// this commitment.
	DelayBound float64 `json:"delay_bound_s"`
}

// ReleaseRequest tears one session down.
type ReleaseRequest struct {
	ID int `json:"id"`
}

// --- system handlers -------------------------------------------------

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

func (d *Daemon) handleCreateSystem(w http.ResponseWriter, r *http.Request) {
	var req CreateSystemRequest
	if !decode(d, w, r, &req) {
		return
	}
	if req.Name == "" || req.Capacity <= 0 || req.LMax <= 0 {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, "system needs a name, positive capacity and positive lmax")
		return
	}
	var classes []admission.Class // nil, admission's default, when none are named
	for _, c := range req.Classes {
		classes = append(classes, admission.Class{R: c.R, Sigma: c.Sigma})
	}
	if classes == nil && req.Proc == 2 {
		// An explicit procedure 2 stays procedure 2, over the one
		// full-link class; only proc 0 or 1 takes admission's default.
		classes = []admission.Class{{R: req.Capacity, Sigma: 1}}
	}
	ctrl, err := admission.NewClassController(req.Proc, req.Capacity, classes)
	if err != nil {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sys := &system{
		name:     req.Name,
		capacity: req.Capacity,
		lmax:     req.LMax,
		sessions: make(map[int]sessionEntry),
		ctrl:     ctrl,
		gate: admission.NewCurveGate(
			calculus.FCFSServer{C: req.Capacity, LMax: req.LMax}, req.BudgetS),
	}
	d.mu.Lock()
	if _, dup := d.systems[req.Name]; dup {
		d.mu.Unlock()
		d.ar.AtomicInc(metrics.HServeDuplicates)
		httpError(w, http.StatusConflict, "system already exists")
		return
	}
	d.systems[req.Name] = sys
	d.mu.Unlock()
	writeJSON(w, http.StatusCreated, struct {
		Name string `json:"name"`
	}{req.Name})
}

func (d *Daemon) lookupSystem(w http.ResponseWriter, r *http.Request) *system {
	d.mu.Lock()
	sys := d.systems[r.PathValue("name")]
	d.mu.Unlock()
	if sys == nil {
		httpError(w, http.StatusNotFound, "no such system")
	}
	return sys
}

// declaration turns a SETUP or Adopt body into the admission request,
// refusing what is wrong with it whatever else is established: a
// nonpositive id, what the controller's Check refuses (lmin above lmax,
// a class outside 1..P, a negative eps), and an lmax above the system's
// — eq. 9/12 and the curve gate's FCFSServer take L_MAX network-wide,
// so a larger packet would make every bound already handed out wrong.
func (sys *system) declaration(req *SetupRequest) (admission.SessionSpec, int, admission.Options, error) {
	lMin := req.LMin
	if lMin == 0 {
		lMin = req.LMax
	}
	class := req.Class
	if class == 0 {
		class = 1
	}
	spec := admission.SessionSpec{ID: req.ID, Rate: req.Rate, LMax: req.LMax, LMin: lMin}
	opts := admission.Options{Eps: req.Eps, PerPacket: true}
	if req.ID <= 0 {
		return spec, 0, opts, errors.New("setup needs a positive id")
	}
	if err := sys.ctrl.Check(spec, class, opts); err != nil {
		return spec, 0, opts, err
	}
	if spec.LMax > sys.lmax {
		return spec, 0, opts, fmt.Errorf("session lmax %g exceeds the system's lmax %g", spec.LMax, sys.lmax)
	}
	return spec, class, opts, nil
}

// handleSetup is the admission fast path: one AdmitGated call, a batch
// of one through the rule test plus the curve gate. Rejection costs one
// O(classes+segments) evaluation — cheap shedding under overload.
func (d *Daemon) handleSetup(w http.ResponseWriter, r *http.Request) {
	sys := d.lookupSystem(w, r)
	if sys == nil {
		return
	}
	var req SetupRequest
	if !decode(d, w, r, &req) {
		return
	}
	spec, class, opts, err := sys.declaration(&req)
	if err != nil {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sys.mu.Lock()
	if _, dup := sys.sessions[req.ID]; dup {
		sys.mu.Unlock()
		d.ar.AtomicInc(metrics.HServeDuplicates)
		httpError(w, http.StatusConflict, "session already established")
		return
	}
	sys.next++
	spec.ID = sys.next // the controller's key (see system)
	a, err := sys.ctrl.AdmitGated(sys.gate, spec, class, opts)
	if err != nil {
		sys.mu.Unlock()
		d.ar.AtomicInc(metrics.HServeSetupRejects)
		writeJSON(w, http.StatusConflict, SetupResponse{Accepted: false})
		return
	}
	sys.sessions[req.ID] = sessionEntry{key: spec.ID, rate: spec.Rate, burst: spec.LMax}
	delay := sys.gate.Delay()
	sys.mu.Unlock()
	d.ar.AtomicInc(metrics.HServeSetups)
	writeJSON(w, http.StatusOK, SetupResponse{Accepted: true, DMax: a.DMax, DelayBound: delay})
}

func (d *Daemon) handleRelease(w http.ResponseWriter, r *http.Request) {
	sys := d.lookupSystem(w, r)
	if sys == nil {
		return
	}
	var req ReleaseRequest
	if !decode(d, w, r, &req) {
		return
	}
	sys.mu.Lock()
	entry, ok := sys.sessions[req.ID]
	if !ok {
		sys.mu.Unlock()
		httpError(w, http.StatusNotFound, "session not established")
		return
	}
	delete(sys.sessions, req.ID)
	sys.ctrl.Remove(entry.key)
	sys.gate.Release(entry.rate, entry.burst)
	sys.mu.Unlock()
	d.ar.AtomicInc(metrics.HServeReleases)
	writeJSON(w, http.StatusOK, struct {
		Released bool `json:"released"`
	}{true})
}

// handleAdopt registers a session established out of band (typically
// by a previous incarnation of this daemon, before a restart): the
// rule test runs to rebuild controller state, but the gate's delay
// budget is not re-judged — an adopted session already exists and
// refusing it would strand a live reservation.
func (d *Daemon) handleAdopt(w http.ResponseWriter, r *http.Request) {
	sys := d.lookupSystem(w, r)
	if sys == nil {
		return
	}
	var req SetupRequest
	if !decode(d, w, r, &req) {
		return
	}
	spec, class, opts, err := sys.declaration(&req)
	if err != nil {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sys.mu.Lock()
	if _, dup := sys.sessions[req.ID]; dup {
		sys.mu.Unlock()
		d.ar.AtomicInc(metrics.HServeDuplicates)
		httpError(w, http.StatusConflict, "session already established")
		return
	}
	sys.next++
	spec.ID = sys.next // the controller's key (see system)
	a, err := sys.ctrl.Admit(spec, class, opts)
	if err != nil {
		sys.mu.Unlock()
		d.ar.AtomicInc(metrics.HServeSetupRejects)
		httpError(w, http.StatusConflict, "adopt rejected: "+err.Error())
		return
	}
	// Commit the gate unconditionally: adoption records, it does not
	// re-judge.
	sys.gate.Commit(spec.Rate, spec.LMax)
	sys.sessions[req.ID] = sessionEntry{key: spec.ID, rate: spec.Rate, burst: spec.LMax}
	// The bound of the aggregate after this commitment, even past the
	// budget (Commit leaves Delay at the last SETUP's bound).
	delay, _ := sys.gate.Try(0, 0)
	sys.mu.Unlock()
	d.ar.AtomicInc(metrics.HServeAdopts)
	writeJSON(w, http.StatusOK, SetupResponse{Accepted: true, DMax: a.DMax, DelayBound: delay})
}

// --- stats -----------------------------------------------------------

// StatsSnapshot is the daemon's JSON status document.
type StatsSnapshot struct {
	UptimeS   float64        `json:"uptime_s"`
	Systems   int            `json:"systems"`
	QueueLen  int            `json:"queue_len"`
	QueueCap  int            `json:"queue_cap"`
	Accepting bool           `json:"accepting"`
	Jobs      map[string]int `json:"jobs"`
	Serve     metrics.Serve  `json:"serve"`
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	systems := len(d.systems)
	d.mu.Unlock()
	d.jmu.Lock()
	states := map[string]int{}
	for _, j := range d.jobs {
		states[j.state().String()]++
	}
	snap := StatsSnapshot{
		UptimeS:   time.Since(d.started).Seconds(),
		Systems:   systems,
		QueueLen:  len(d.queue),
		QueueCap:  d.opts.QueueDepth,
		Accepting: d.accepting,
		Jobs:      states,
		Serve:     d.reg.ServeCounters(),
	}
	d.jmu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// retryAfter computes the 429 hint: capped exponential in the
// consecutive-shed streak, so a persistently overloaded daemon tells
// its clients to come back later and later.
func (d *Daemon) retryAfter() time.Duration {
	streak := d.shedStreak.Add(1)
	hint := d.opts.RetryAfterBase
	for i := int64(1); i < streak && hint < d.opts.RetryAfterCap; i++ {
		hint *= 2
	}
	if hint > d.opts.RetryAfterCap {
		hint = d.opts.RetryAfterCap
	}
	return hint
}

// drainBody consumes what is left of the request body so the
// connection can be reused even on early rejection.
func drainBody(r *http.Request) {
	io.Copy(io.Discard, r.Body) //nolint:errcheck
}
