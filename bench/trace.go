package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"time"

	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/shard"
	"leaveintime/internal/topo"
	"leaveintime/internal/traffic"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Times are nanoseconds since the tracer began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // spans of one op share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: begin and end return at once, which is all an
// untraced run pays.
type tracer struct {
	mu    sync.Mutex // serve-t1's clients record concurrently
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanTotals is what the spans of one name add up to.
type spanTotals struct {
	count  int
	total  int64 // end - start
	selfNs int64 // total minus the children's totals
}

// totals sums the spans by name. A span's self time is its duration
// minus its children's; children of one parent never overlap, because
// each op runs on one goroutine.
func (t *tracer) totals() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.End - s.Start
		st.selfNs += s.End - s.Start - child[s.ID]
	}
	return out
}

// meanUs is the mean duration of the spans called name, in
// microseconds.
func meanUs(tot map[string]*spanTotals, name string) float64 {
	st := tot[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count) / 1e3
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(workload string) (string, error) {
	path, err := outPath("trace-" + workload + ".json")
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// callStat counts every call through a decorator and times one in 64,
// so the decorators cost a counter on most calls.
type callStat struct {
	n, timed int64
	ns       int64
}

func (c *callStat) sample() bool {
	c.n++
	return c.n&63 == 0
}

func (c *callStat) took(t0 time.Time) {
	c.timed++
	c.ns += int64(time.Since(t0))
}

// meanNs is the mean of the timed calls.
func (c *callStat) meanNs() float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.timed)
}

// estNs scales the timed calls' mean to every call.
func (c *callStat) estNs() float64 { return c.meanNs() * float64(c.n) }

// hopProbe is what the decorators of one traced tandem run collect.
type hopProbe struct {
	enqueue, dequeue, nextEligible, onTransmit, next callStat
	// regs holds each op's registry, which supplies the counts.
	regs []*metrics.Registry
}

// tracedDisc decorates a discipline: it forwards every call, counts
// it, and times one in 64. It forwards the optional interfaces a port
// looks for, so a decorated discipline behaves as the bare one.
type tracedDisc struct {
	inner network.Discipline
	p     *hopProbe
}

func (d *tracedDisc) AddSession(cfg network.SessionPort) { d.inner.AddSession(cfg) }
func (d *tracedDisc) Len() int                           { return d.inner.Len() }

func (d *tracedDisc) Enqueue(p *packet.Packet, now float64) {
	if d.p.enqueue.sample() {
		defer d.p.enqueue.took(time.Now())
	}
	d.inner.Enqueue(p, now)
}

func (d *tracedDisc) Dequeue(now float64) (*packet.Packet, bool) {
	if d.p.dequeue.sample() {
		defer d.p.dequeue.took(time.Now())
	}
	return d.inner.Dequeue(now)
}

func (d *tracedDisc) NextEligible(now float64) (float64, bool) {
	if d.p.nextEligible.sample() {
		defer d.p.nextEligible.took(time.Now())
	}
	return d.inner.NextEligible(now)
}

func (d *tracedDisc) OnTransmit(p *packet.Packet, finish float64) {
	if d.p.onTransmit.sample() {
		defer d.p.onTransmit.took(time.Now())
	}
	d.inner.OnTransmit(p, finish)
}

func (d *tracedDisc) RemoveSession(id int) {
	if r, ok := d.inner.(network.SessionRemover); ok {
		r.RemoveSession(id)
	}
}

func (d *tracedDisc) PurgeSession(id int, drop func(*packet.Packet)) {
	if sp, ok := d.inner.(network.SessionPurger); ok {
		sp.PurgeSession(id, drop)
	} else {
		d.RemoveSession(id)
	}
}

func (d *tracedDisc) HasSession(id int) bool {
	if c, ok := d.inner.(network.SessionChecker); ok {
		return c.HasSession(id)
	}
	return true
}

func (d *tracedDisc) SetMetrics(a *metrics.Arena, base metrics.Handle) {
	if s, ok := d.inner.(interface {
		SetMetrics(*metrics.Arena, metrics.Handle)
	}); ok {
		s.SetMetrics(a, base)
	}
}

// tracedSource decorates a traffic source the same way.
type tracedSource struct {
	inner traffic.Source
	p     *hopProbe
}

func (s *tracedSource) Next() (float64, float64) {
	if s.p.next.sample() {
		defer s.p.next.took(time.Now())
	}
	return s.inner.Next()
}

// tracedTandemOp is one tandem op with a span around build, each
// connect and run, both decorators in place, the registry counting and
// the loop driven one Step at a time.
func tracedTandemOp(ti *tandemInst, op, parent int) (*tandem, error) {
	tr, probe := ti.tr, ti.probe
	reg := metrics.NewRegistry()
	bid := tr.begin("build", parent, op)
	t, err := assembleTandem(ti.subSeed(op), ti.jitter, reg,
		func(c float64) network.Discipline { return &tracedDisc{inner: litDisc(c), p: probe} },
		func(s traffic.Source) traffic.Source { return &tracedSource{inner: s, p: probe} },
		func(add func() error) error {
			id := tr.begin("connect", bid, op)
			defer tr.end(id)
			return add()
		})
	tr.end(bid)
	if err != nil {
		return nil, err
	}
	id := tr.begin("run", parent, op)
	for _, s := range t.sessions {
		s.Start(0, tandemRun)
	}
	// Simulator.Run(until), one Step at a time.
	for {
		next, ok := t.sim.NextTime()
		if !ok || next > tandemRun {
			break
		}
		t.sim.Step()
	}
	tr.end(id)
	probe.regs = append(probe.regs, reg)
	return t, nil
}

// tracedMetroOp is MetroPlan.Run restated over the public topo and
// shard calls, with a span around each. Routes are found on the op's
// own graph in PlanMetro's order, so the result equals plan.Run()'s.
func tracedMetroOp(seed uint64, tr *tracer, op, parent int) (*scenarios.MetroResult, error) {
	opt := metroOptions(seed, 1)
	const rings, ringSize, perRing = metroRings, metroRingSize, 2

	id := tr.begin("topo.metro", parent, op)
	g, err := topo.Metro(topo.DefaultMetro(rings, ringSize))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("shard.new", parent, op)
	rt, err := shard.New(shard.Config{Shards: 1, LMax: cellBits, Graph: g, Disc: func(l *topo.Link) network.Discipline {
		return litDisc(l.Capacity)
	}})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	res := &scenarios.MetroResult{Shards: 1}
	r := rng.New(opt.Seed)
	var views []*shard.SessionView
	add := func(from, to string) error {
		rid := tr.begin("topo.route", parent, op)
		links, err := g.RouteLinks(from, to)
		tr.end(rid)
		if err != nil {
			return err
		}
		n := len(views)
		aid := tr.begin("shard.add_session", parent, op)
		v, err := rt.AddSession(shard.SessionPlan{
			ID: n + 1, Rate: voiceRate, Links: links, Cfgs: make([]network.SessionPort, len(links)),
			Source: scenarios.NewOnOff(scenarios.AOffValues[n%len(scenarios.AOffValues)], r.Split()),
		})
		tr.end(aid)
		views = append(views, v)
		return err
	}
	for i := 0; i < rings; i++ {
		for s := 0; s < perRing; s++ {
			if err := add(topo.MetroHub(i), topo.MetroNode(i, ringSize-1)); err != nil {
				return nil, err
			}
		}
		for s := 0; s < perRing; s++ {
			if err := add(topo.MetroNode(i, 0), topo.MetroNode((i+1+s)%rings, ringSize/2)); err != nil {
				return nil, err
			}
		}
	}
	id = tr.begin("shard.run", parent, op)
	for _, v := range views {
		v.Start(0, opt.Duration)
	}
	rt.Run()
	tr.end(id)
	id = tr.begin("collect", parent, op)
	res.Tripped = rt.Tripped()
	for _, v := range views {
		res.Emitted += v.First().Emitted
		res.Delivered += v.Last().Delivered
		res.MaxDelay = math.Max(res.MaxDelay, v.Last().Delays.Max())
	}
	tr.end(id)
	return res, nil
}
