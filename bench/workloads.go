package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	lit "leaveintime"
	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/serve"
	"leaveintime/internal/traffic"
)

// A workload is one set of inputs the benchmark runs. Its op counts are
// fixed, not timed out, so two commits do identical work; they are
// sized for runSeconds on the 2-CPU host the benchmark was defined on
// and scale linearly with -seconds.
type workload struct {
	name string
	why  string
	// workUnit names what one op advances (the numerator of
	// work_per_wall_s) and workPerOp how much of it.
	workUnit  string
	workPerOp float64
	// ops and setups are the timed op count and the number of timed
	// set-ups at runSeconds; traceMin is the op count of a traced run
	// that is only after this workload's per-layer rows.
	ops, setups, traceMin int
	// clients is the number of goroutines that issue ops (closed loop);
	// slice is how many ops run between two host probes.
	clients, slice int
	// open performs one complete set-up from nothing — what setup_s
	// times — and returns the instance ready for its first op.
	open func(seed uint64) (instance, error)
	// layers measures, from n traced ops, the per-layer rows whose home
	// is this workload; it also returns those ops' statistics and
	// digest.
	layers func(w *workload, seed uint64, n int, tr *tracer, r *result) (rows, opStats, uint64)
}

// An instance is a workload that has been set up.
type instance interface {
	// Op runs operation i, checks its output and compares its digest to
	// that of the first op on the same inputs; any error counts as one
	// failed op.
	Op(i int) error
	// Digest identifies the simulated results of the ops run so far.
	Digest() uint64
	// Close checks what can only be checked at the end and releases the
	// instance.
	Close() error
}

// runSeconds is BENCHMARK.json's run_seconds: the run length the op
// counts below are sized for.
const runSeconds = 22

// The paper's Figure 6 parameters (scenarios has them too; the tandem
// is restated here because it is the benchmark's input, and must not
// move when a scenario default does).
const (
	cellBits  = 424.0
	t1        = 1536e3
	voiceRate = 32e3
	hopGamma  = 1e-3
	tandemLen = 5
	voiceN    = 48
	voiceAOff = 6.5e-3 // the heaviest of Fig. 7's loads: ~98 % utilisation
	oc3       = 155.52e6
	// topo.DefaultMetro's size, which PlanMetro picks: 208 switches.
	metroRings, metroRingSize = 16, 12
	// serve-t1 holds 45 calls, not the issue's 46: the curve gate
	// refuses rho >= C, so a T1 carries 47 voice calls, and two clients
	// hold two more at once.
	preloaded = 45
)

// serveClients is serve-t1's closed-loop client count, and its
// connection count: no more of either than CPUs.
var serveClients = min(2, runtime.NumCPU())

// How much one op does. Variables only so that bench_test.go can cut
// them down; nothing else assigns them.
var (
	tandemRun     = 15.0 // simulated seconds per tandem op
	metroRun      = 30.0 // simulated seconds per metro op
	standing      = 4096 // call-churn's standing set
	openLoopCalls = 8000 // serve-t1's open-loop probe: one second at 8000 calls/s
)

func workloads() []*workload {
	return []*workload{
		{
			name: "tandem-voice48", workUnit: "sim_s", workPerOp: tandemRun,
			why: "smallest packets at full load on a cache-resident network: event, core queue and network link cost per packet; regulator bypassed",
			ops: 176, setups: 21000, traceMin: 4, clients: 1, slice: 1,
			open:   func(seed uint64) (instance, error) { return openTandem(seed, false) },
			layers: voiceLayers,
		},
		{
			name: "tandem-jitter48", workUnit: "sim_s", workPerOp: tandemRun,
			why: "the same tandem with every packet through core's regulator, so a gain for one of the two paths that costs the other shows as a split",
			ops: 132, setups: 20000, traceMin: 4, clients: 1, slice: 1,
			open:   func(seed uint64) (instance, error) { return openTandem(seed, true) },
			layers: jitterLayers,
		},
		{
			name: "metro-serial", workUnit: "sim_s", workPerOp: metroRun,
			why: "208 switches rebuilt every op: working set leaves the caches, so topo, shard and network construction and a sparse event heap do the work",
			ops: 120, setups: 240, traceMin: 4, clients: 1, slice: 1,
			open:   openMetro,
			layers: metroLayers,
		},
		{
			name: "call-churn", workUnit: "calls", workPerOp: float64(standing),
			why: "4096 standing calls replaced per op with no packets: admission rule sums, AddSession/RemoveSession and sesstab do all the work",
			ops: 35, setups: 16, traceMin: 1, clients: 1, slice: 1,
			open:   openChurn,
			layers: churnLayers,
		},
		{
			name: "serve-t1", workUnit: "calls", workPerOp: 1,
			why: "closed-loop SETUP+RELEASE over loopback HTTP: serve decode, lock and encode dominate and admission is 45 members deep",
			ops: 240000, setups: 1200, traceMin: 8000, clients: serveClients, slice: 1500,
			open:   openServe,
			layers: serveLayers,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// digest is FNV-1a over 64-bit words.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(v uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func (d *digest) addFloat(f float64) { d.add(math.Float64bits(f)) }

// refDigest holds the first op's digest; every later op must repeat it.
type refDigest struct{ v atomic.Uint64 }

func (r *refDigest) check(d digest) error {
	if d == 0 {
		d = 1 // 0 marks "unset"
	}
	if r.v.CompareAndSwap(0, uint64(d)) {
		return nil
	}
	if ref := r.v.Load(); ref != uint64(d) {
		return fmt.Errorf("digest %016x differs from the first op's %016x", uint64(d), ref)
	}
	return nil
}

// --- tandem-voice48, tandem-jitter48 ---------------------------------

// tandem is one built Figure 6 network: five T1 hops, 48 ON-OFF voice
// sessions, ready for its first packet.
type tandem struct {
	sim      *event.Simulator
	net      *network.Network
	sessions []*network.Session
	// delayBound and jitterBound are eq. 12 and ineq. 17 (or its
	// no-control counterpart); every session has the same route and
	// declaration, so one pair serves all.
	delayBound, jitterBound float64
}

// buildTandem assembles the tandem through lit.System, the way a
// library user does.
func buildTandem(seed uint64, jitter bool) (*tandem, error) {
	sys, err := lit.NewSystem(lit.SystemConfig{LMax: cellBits})
	if err != nil {
		return nil, err
	}
	route := make([]*lit.Server, tandemLen)
	for h := range route {
		if route[h], err = sys.AddServer(fmt.Sprintf("n%d", h+1), t1, hopGamma); err != nil {
			return nil, err
		}
	}
	t := &tandem{sim: sys.Sim, net: sys.Net}
	r := lit.NewRand(seed)
	for s := 0; s < voiceN; s++ {
		sess, b, err := sys.Connect(lit.ConnectRequest{
			Rate: voiceRate, Route: route, JitterControl: jitter,
			// The ON-OFF source never exceeds its reserved rate, so it
			// conforms to a one-packet token bucket: D_ref_max = L/r.
			B0:     cellBits,
			Source: scenarios.NewOnOff(voiceAOff, r.Split()),
		})
		if err != nil {
			return nil, fmt.Errorf("connect %d: %w", s+1, err)
		}
		t.sessions = append(t.sessions, sess)
		t.delayBound, t.jitterBound = b.DelayBound, b.JitterBound
	}
	return t, nil
}

// run is lit.System.Run.
func (t *tandem) run() {
	for _, s := range t.sessions {
		s.Start(0, tandemRun)
	}
	t.sim.Run(tandemRun)
}

// collect checks the paper's guarantees on a finished run and digests
// its simulated results.
func (t *tandem) collect(jitter bool) (digest, error) {
	d := newDigest()
	var emitted, delivered int64
	maxDelay := 0.0
	var bad error
	for _, s := range t.sessions {
		emitted += s.Emitted
		delivered += s.Delivered
		m := s.Delays.Max()
		d.addFloat(m)
		maxDelay = math.Max(maxDelay, m)
		if m > t.delayBound {
			bad = fmt.Errorf("session %d: max delay %g exceeds the eq. 12 bound %g", s.ID, m, t.delayBound)
		}
		if j := s.Delays.Jitter(); jitter && j > t.jitterBound {
			bad = fmt.Errorf("session %d: jitter %g exceeds the ineq. 17 bound %g", s.ID, j, t.jitterBound)
		}
	}
	d.add(uint64(emitted))
	d.add(uint64(delivered))
	d.addFloat(maxDelay)
	if bad != nil {
		return d, bad
	}
	// Every packet taken from the pool was emitted by a session, and
	// every packet released was delivered: nothing dropped, nothing
	// leaked. Packets still queued at the end of the run are live.
	if ps := t.net.PoolStats(); ps.Taken != emitted || ps.Released != delivered {
		return d, fmt.Errorf("pool taken %d released %d, sessions emitted %d delivered %d",
			ps.Taken, ps.Released, emitted, delivered)
	}
	if delivered == 0 {
		return d, errors.New("nothing delivered")
	}
	return d, nil
}

// subSeeds is how many sample paths a tandem run cycles through: op i
// draws its sources from sub-seed i mod subSeeds of the run's seed.
// With one path per run, what depends on a path's extremes is bimodal
// from seed to seed — on tandem-jitter48 the peak number of packets
// inside the network sits at a slab boundary of the packet pool, and a
// quarter of the seeds allocate one slab (11 %) more per op. Over 64
// paths every run has about the same share of such ops.
const subSeeds = 64

type tandemInst struct {
	seed   uint64
	jitter bool
	// tr and probe are set by a traced run: spans around the calls into
	// lit, and the decorators' statistics.
	tr    *tracer
	probe *hopProbe
	// built is the set-up's product, a tandem ready for its first
	// packet, kept so that live_heap_mb sees it. Ops build their own.
	built *tandem
	// refs[k] is the digest of the first op on sub-seed k; every later
	// op on it must repeat it.
	refs [subSeeds]refDigest
	// boundScale, when set, shrinks the bound the ops are checked
	// against; tests use it to inject a violation.
	boundScale float64
}

func openTandem(seed uint64, jitter bool) (instance, error) {
	t, err := buildTandem(seed*subSeeds, jitter)
	if err != nil {
		return nil, err
	}
	return &tandemInst{seed: seed, jitter: jitter, built: t}, nil
}

// subSeed is the seed of op i's sources.
func (ti *tandemInst) subSeed(i int) uint64 { return ti.seed*subSeeds + uint64(i%subSeeds) }

func (ti *tandemInst) Op(i int) error {
	root := ti.tr.begin("op", -1, i)
	defer ti.tr.end(root)
	var t *tandem
	var err error
	if ti.tr == nil {
		if t, err = buildTandem(ti.subSeed(i), ti.jitter); err != nil {
			return err
		}
		t.run()
	} else if t, err = tracedTandemOp(ti, i, root); err != nil {
		return err
	}
	if ti.boundScale != 0 {
		t.delayBound *= ti.boundScale
	}
	id := ti.tr.begin("collect", root, i)
	d, err := t.collect(ti.jitter)
	ti.tr.end(id)
	if err != nil {
		return err
	}
	return ti.refs[i%subSeeds].check(d)
}

// Digest is the first sub-seed's: every run, traced or not and however
// long, has it.
func (ti *tandemInst) Digest() uint64 { return ti.refs[0].v.Load() }
func (ti *tandemInst) Close() error   { return nil }

// assembleTandem builds the same tandem through network.New/NewPort,
// as benchmarks.Aggregate does, because lit.System constructs its own
// discipline: mk supplies the one to use at each port and wrap
// decorates each source. With core.New and no decoration the run is
// identical to buildTandem's, packet for packet.
func assembleTandem(seed uint64, jitter bool, reg *metrics.Registry,
	mk func(capacity float64) network.Discipline, wrap func(traffic.Source) traffic.Source,
	connect func(add func() error) error) (*tandem, error) {
	sim := event.New()
	net := network.New(sim, cellBits)
	if reg != nil {
		net.EnableMetrics(reg)
	}
	ports := make([]*network.Port, tandemLen)
	acs := make([]*admission.Procedure1, tandemLen)
	hops := make([]admission.Hop, tandemLen)
	for h := range ports {
		ports[h] = net.NewPort(fmt.Sprintf("n%d", h+1), t1, hopGamma, mk(t1))
		ac, err := admission.NewProcedure1(t1, t1Classes)
		if err != nil {
			return nil, err
		}
		acs[h] = ac
	}
	t := &tandem{sim: sim, net: net}
	r := rng.New(seed)
	for s := 1; s <= voiceN; s++ {
		src := wrap(scenarios.NewOnOff(voiceAOff, r.Split()))
		err := connect(func() error {
			spec := voiceSpec(s)
			cfgs := make([]network.SessionPort, tandemLen)
			var last admission.Assignment
			for h, ac := range acs {
				a, err := ac.Admit(spec, 1, admission.Options{PerPacket: true})
				if err != nil {
					return err
				}
				cfgs[h] = network.SessionPort{D: a.D, DMax: a.DMax}
				hops[h] = admission.Hop{C: t1, Gamma: hopGamma, DMax: a.DMax}
				last = a
			}
			t.sessions = append(t.sessions, net.AddSession(s, voiceRate, jitter, ports, cfgs, src))
			route := admission.Route{Hops: hops, LMax: cellBits, Alpha: last.Alpha(spec)}
			dRef := cellBits / voiceRate
			t.delayBound = route.DelayBound(dRef)
			if jitter {
				t.jitterBound = route.JitterBoundControl(dRef, cellBits)
			} else {
				t.jitterBound = route.JitterBoundNoControl(dRef, cellBits)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("connect %d: %w", s, err)
		}
	}
	return t, nil
}

// t1Classes is lit.System's default: procedure 1, one class over the
// whole link.
var t1Classes = []admission.Class{{R: t1, Sigma: 1}}

func voiceSpec(id int) admission.SessionSpec {
	return admission.SessionSpec{ID: id, Rate: voiceRate, LMax: cellBits, LMin: cellBits}
}

func litDisc(capacity float64) network.Discipline {
	return core.New(core.Config{Capacity: capacity, LMax: cellBits})
}

func plainSource(s traffic.Source) traffic.Source { return s }
func plainConnect(add func() error) error         { return add() }

// --- metro-serial ----------------------------------------------------

type metroInst struct {
	seed uint64
	tr   *tracer
	plan *scenarios.MetroPlan
	ref  refDigest
}

func metroOptions(seed uint64, shards int) scenarios.MetroOptions {
	// Seed 0 means "default" to PlanMetro; the benchmark's seeds start
	// at 0, so shift them.
	return scenarios.MetroOptions{Duration: metroRun, Seed: seed + 1, Shards: shards}
}

func openMetro(seed uint64) (instance, error) {
	plan, err := scenarios.PlanMetro(metroOptions(seed, 1))
	if err != nil {
		return nil, err
	}
	return &metroInst{seed: seed, plan: plan}, nil
}

func metroDigest(res *scenarios.MetroResult) (digest, error) {
	d := newDigest()
	d.add(uint64(res.Emitted))
	d.add(uint64(res.Delivered))
	d.addFloat(res.MaxDelay)
	if res.Tripped != "" {
		return d, fmt.Errorf("watchdog: %s", res.Tripped)
	}
	if res.Delivered == 0 {
		return d, errors.New("nothing delivered")
	}
	return d, nil
}

func (m *metroInst) Op(i int) error {
	var res *scenarios.MetroResult
	var err error
	if m.tr == nil {
		res, err = m.plan.Run()
	} else {
		root := m.tr.begin("op", -1, i)
		res, err = tracedMetroOp(m.seed, m.tr, i, root)
		m.tr.end(root)
	}
	if err != nil {
		return err
	}
	d, err := metroDigest(res)
	if err != nil {
		return err
	}
	return m.ref.check(d)
}

func (m *metroInst) Digest() uint64 { return m.ref.v.Load() }
func (m *metroInst) Close() error   { return nil }

// --- call-churn ------------------------------------------------------

type churnInst struct {
	tr    *tracer
	sys   *lit.System
	route []*lit.Server
	// class[j] is the delay class of the j-th standing call, drawn from
	// the seed; ring[j] is the call currently standing in slot j.
	class []int
	ring  []*lit.Session
	ref   refDigest
}

// churnClasses are three procedure-2 classes over an OC-3: a third of
// the link each, with sigma budgets that hold every draw of 4096 calls
// (a class fills at 1620 calls; the draws put 1365 +- 30 in each).
var churnClasses = []lit.Class{
	{R: oc3 / 3, Sigma: 5e-3}, {R: 2 * oc3 / 3, Sigma: 10e-3}, {R: oc3, Sigma: 15e-3},
}

func openChurn(seed uint64) (instance, error) {
	sys, err := lit.NewSystem(lit.SystemConfig{LMax: cellBits, Proc: 2, Classes: churnClasses})
	if err != nil {
		return nil, err
	}
	c := &churnInst{sys: sys, class: make([]int, standing), ring: make([]*lit.Session, standing)}
	for h := 0; h < tandemLen; h++ {
		srv, err := sys.AddServer(fmt.Sprintf("n%d", h+1), oc3, hopGamma)
		if err != nil {
			return nil, err
		}
		c.route = append(c.route, srv)
	}
	r := rng.New(seed)
	for j := range c.class {
		c.class[j] = 1 + r.Intn(3)
		if _, err := c.connect(j, -1, -1); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *churnInst) connect(j, parent, op int) (*lit.Bounds, error) {
	id := c.tr.begin("connect", parent, op)
	sess, b, err := c.sys.Connect(lit.ConnectRequest{
		Rate: voiceRate, Route: c.route, Class: c.class[j], B0: cellBits,
	})
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("call %d refused: %w", j, err)
	}
	c.ring[j] = sess
	return b, nil
}

// Op replaces the standing set once, oldest call first.
func (c *churnInst) Op(i int) error {
	root := c.tr.begin("op", -1, i)
	defer c.tr.end(root)
	d := newDigest()
	for j := range c.ring {
		id := c.tr.begin("disconnect", root, i)
		c.sys.Disconnect(c.ring[j])
		c.tr.end(id)
		b, err := c.connect(j, root, i)
		if err != nil {
			return err
		}
		d.add(uint64(c.class[j]))
		d.addFloat(b.DelayBound)
	}
	if n := len(c.sys.Net.Sessions()); n != standing {
		return fmt.Errorf("%d sessions standing after the op, want %d", n, standing)
	}
	return c.ref.check(d)
}

func (c *churnInst) Digest() uint64 { return c.ref.v.Load() }
func (c *churnInst) Close() error   { return nil }

// --- serve-t1 --------------------------------------------------------

const serveSystem = "t1"

type serveInst struct {
	seed   uint64
	tr     *tracer
	d      *serve.Daemon
	tp     *http.Transport
	client *http.Client
	base   string
	// ok and refused are the client's own counts, compared to
	// /v1/stats at Close.
	ok, refused atomic.Int64
	// pattern sums a hash of every refused op's index: which ops were
	// oversize, in whatever order the clients reached them.
	pattern    atomic.Uint64
	okRef      refDigest
	refusedRef refDigest
	// wantStatus overrides the status an accepted SETUP must return;
	// tests set it to inject a wrong outcome.
	wantStatus int
	// rtt, when set, receives every request's round-trip time.
	rtt *rttLog
}

func openServe(seed uint64) (instance, error) {
	d := serve.New(serve.Options{})
	if err := d.Start(); err != nil {
		return nil, err
	}
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	s := &serveInst{
		seed: seed, d: d, tp: tp, base: "http://" + d.Addr(),
		client:     &http.Client{Transport: tp, Timeout: 5 * time.Second},
		wantStatus: http.StatusOK,
	}
	status, err := s.post(nil, "/v1/systems", serve.CreateSystemRequest{Name: serveSystem, Capacity: t1, LMax: cellBits}, nil, -1, -1)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("create system: status %d", status)
	}
	for id := 1; err == nil && id <= preloaded; id++ {
		err = s.setup(nil, id, -1, -1)
	}
	if err != nil {
		s.Close() //nolint:errcheck — the set-up error is the one to report
		return nil, err
	}
	return s, nil
}

const (
	setupPath   = "/v1/systems/" + serveSystem + "/setup"
	releasePath = "/v1/systems/" + serveSystem + "/release"
)

// post sends one request and decodes the reply into out, with a span
// around each of the client's three steps.
func (s *serveInst) post(tr *tracer, path string, in, out any, parent, op int) (int, error) {
	id := tr.begin("client.encode", parent, op)
	body, err := json.Marshal(in)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("client.roundtrip", parent, op)
	t0 := time.Now()
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rtt := time.Since(t0)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	s.rtt.add(path, resp.StatusCode, rtt)
	if out != nil {
		id = tr.begin("client.decode", parent, op)
		err = json.Unmarshal(raw, out)
		tr.end(id)
	}
	return resp.StatusCode, err
}

// setup establishes voice call id and checks the reply against the
// first one's: the rules grant every such call the same d_max.
func (s *serveInst) setup(tr *tracer, id, parent, op int) error {
	var sr serve.SetupResponse
	status, err := s.post(tr, setupPath, serve.SetupRequest{ID: id, Rate: voiceRate, LMax: cellBits}, &sr, parent, op)
	if err != nil {
		return err
	}
	if status != s.wantStatus || !sr.Accepted {
		return fmt.Errorf("setup %d: status %d accepted %v, want %d", id, status, sr.Accepted, s.wantStatus)
	}
	d := newDigest()
	d.add(uint64(status))
	d.addFloat(sr.DMax)
	s.ok.Add(1)
	return s.okRef.check(d)
}

func (s *serveInst) release(tr *tracer, id, parent, op int) error {
	status, err := s.post(tr, releasePath, serve.ReleaseRequest{ID: id}, nil, parent, op)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("release %d: status %d, want 200", id, status)
	}
	return err
}

// mix64 is SplitMix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// oversize reports whether op i is one of the one-in-eight, chosen by
// the seed, that ask for more than the link has left.
func (s *serveInst) oversize(i int) bool {
	return mix64(mix64(s.seed+0x9e3779b97f4a7c15)+uint64(i))&7 == 0
}

const patternOps = 1024

// spanEvery is the share of serve-t1's traced ops that record spans:
// a quarter of 300 000 calls would otherwise leave half a million.
// Round-trip times are logged for every op all the same.
const spanEvery = 16

// Op is one call: SETUP then RELEASE, or a SETUP for the whole link
// that must be refused with 409.
func (s *serveInst) Op(i int) error {
	tr := s.tr
	if i%spanEvery != 0 {
		tr = nil
	}
	root := tr.begin("op", -1, i)
	defer tr.end(root)
	id := preloaded + 1 + i
	if !s.oversize(i) {
		if err := s.setup(tr, id, root, i); err != nil {
			return err
		}
		return s.release(tr, id, root, i)
	}
	var sr serve.SetupResponse
	status, err := s.post(tr, setupPath, serve.SetupRequest{ID: id, Rate: t1, LMax: cellBits}, &sr, root, i)
	if err != nil {
		return err
	}
	if status != http.StatusConflict || sr.Accepted {
		return fmt.Errorf("oversize setup %d: status %d accepted %v, want 409", id, status, sr.Accepted)
	}
	d := newDigest()
	d.add(uint64(status))
	s.refused.Add(1)
	if i < patternOps {
		s.pattern.Add(mix64(uint64(i)))
	}
	return s.refusedRef.check(d)
}

// Digest folds in which ops the seed made oversize, the only thing the
// seed decides on this workload.
func (s *serveInst) Digest() uint64 {
	d := newDigest()
	d.add(s.okRef.v.Load())
	d.add(s.refusedRef.v.Load())
	d.add(s.pattern.Load())
	return uint64(d)
}

// Close compares the daemon's own counters with the client's, then
// drains the daemon and drops the connections.
func (s *serveInst) Close() error {
	var snap serve.StatsSnapshot
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
	}
	if err == nil {
		ok, refused := s.ok.Load(), s.refused.Load()
		if c := snap.Serve; c.Setups != ok || c.SetupRejects != refused || c.Releases != ok-preloaded {
			err = fmt.Errorf("/v1/stats has %d setups, %d rejects, %d releases; the client counted %d, %d, %d",
				c.Setups, c.SetupRejects, c.Releases, ok, refused, ok-preloaded)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	derr := s.d.Drain(ctx)
	s.tp.CloseIdleConnections()
	return errors.Join(err, derr)
}

// rttLog collects per-request round-trip times of a traced run.
type rttLog struct {
	mu                     sync.Mutex
	setup, release, reject []float64 // microseconds
}

func (l *rttLog) add(path string, status int, d time.Duration) {
	if l == nil {
		return
	}
	us := float64(d) / 1e3
	l.mu.Lock()
	switch {
	case path == releasePath:
		l.release = append(l.release, us)
	case path == setupPath && status == http.StatusConflict:
		l.reject = append(l.reject, us)
	case path == setupPath:
		l.setup = append(l.setup, us)
	}
	l.mu.Unlock()
}
