package core

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/sesstab"
)

// Aggregate is the DiffServ-style class-aggregated variant of the
// Leave-in-Time server: instead of one reference-server emulation per
// session, the port keeps one per *class* (EF/AF-style traffic
// aggregates). Many micro-sessions map onto a few classes, so interior
// nodes carry O(classes) scheduling state no matter how many sessions
// are admitted — the scaling path to 10⁵–10⁶ sessions.
//
// Mechanically it is the LiT recurrence (eqs. 6-11) applied to the
// aggregate: class c has reserved rate R_c = Σ r_s over its current
// members, service parameter d_c = max member d_max (a running
// maximum, never tightened while members remain, so no member's
// promise is violated by a departure), and one K clock shared by all
// member packets:
//
//	F = max{E, K_c} + d_c,   K_c' = max{E, K_c} + L/R_c.
//
// Σ_c R_c equals the admitted rate sum, so the schedulability argument
// behind Theorem 1 carries over with classes in the role of sessions.
// What does NOT carry over is per-session isolation: a member packet
// can wait behind the entire class backlog at every hop, and interior
// burst accumulation compounds hop over hop, so the paper's per-
// session bounds (eq. 12, ineq. 17) degrade to aggregate bounds with
// quadratic (not linear) hop accumulation — quantified by the simcheck
// class-aggregate battery (see internal/simcheck).
//
// Jitter-controlled members still pass through the regulator, and
// their eq.-9 holding time uses the class guarantee (d_max - d_i = 0
// within a class, since every member packet is charged d_c).
type Aggregate struct {
	cfg AggConfig
	// members is a session-ID-indexed table: class index, member
	// rate (for R_c maintenance) and jitter mode.
	members sesstab.Table[aggMember]
	classes []aggClass
	// queues is the regulator and the transmission queue (always keyed
	// by exact deadline — the binned approximation is a per-port choice
	// orthogonal to aggregation), with Dequeue, NextEligible, Len and
	// SetMetrics as for the per-session server.
	queues
}

// AggConfig parametrizes one aggregated Leave-in-Time server.
type AggConfig struct {
	// Capacity is the outgoing link rate C in bits/s (eq. 9).
	Capacity float64
	// LMax is the network-wide maximum packet length in bits (eq. 9).
	LMax float64
	// Classes is the number of aggregate classes at this port.
	Classes int
	// ClassOf maps a session ID to its class index in [0, Classes).
	// It is consulted once per AddSession, never on the packet path.
	ClassOf func(session int) int
}

type aggMember struct {
	class  int
	rate   float64
	jitter bool
}

type aggClass struct {
	rate    float64 // R_c: sum of current member rates
	dMax    float64 // d_c: running max of member d_max
	kPrev   float64 // K_c
	started bool
	members int
}

// NewAggregate returns an aggregated Leave-in-Time server.
func NewAggregate(cfg AggConfig) *Aggregate {
	if cfg.Capacity <= 0 || cfg.LMax <= 0 {
		panic("core: AggConfig requires positive Capacity and LMax")
	}
	if cfg.Classes <= 0 || cfg.ClassOf == nil {
		panic("core: AggConfig requires Classes and ClassOf")
	}
	return &Aggregate{
		cfg:     cfg,
		classes: make([]aggClass, cfg.Classes),
		queues:  newQueues(cfg.Capacity, cfg.LMax),
	}
}

// AddSession implements network.Discipline: the session joins its
// class, growing R_c by its rate and (at most) raising d_c to its
// declared d_max. A session without a declared DMax contributes the
// VirtualClock-style LMax/rate.
func (a *Aggregate) AddSession(cfg network.SessionPort) {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("core: session %d has nonpositive rate", cfg.Session))
	}
	cls := a.cfg.ClassOf(cfg.Session)
	if cls < 0 || cls >= len(a.classes) {
		panic(fmt.Sprintf("core: session %d mapped to class %d of %d", cfg.Session, cls, len(a.classes)))
	}
	d := cfg.DMax
	if d <= 0 {
		d = a.cfg.LMax / cfg.Rate
	}
	a.members.Put(cfg.Session, aggMember{class: cls, rate: cfg.Rate, jitter: cfg.JitterControl})
	c := &a.classes[cls]
	c.rate += cfg.Rate
	if d > c.dMax {
		c.dMax = d
	}
	c.members++
}

// Enqueue implements network.Discipline: the LiT stamping against the
// packet's class state instead of its session's.
func (a *Aggregate) Enqueue(p *packet.Packet, now float64) {
	m := a.members.Get(p.Session)
	if m == nil {
		panic(fmt.Sprintf("core: packet for unregistered session %d", p.Session))
	}
	c := &a.classes[m.class]
	e := now
	if m.jitter {
		e += p.Hold
	}
	if !c.started {
		c.kPrev = now // K_0 = t_1, per class
		c.started = true
	}
	base := e
	if c.kPrev > base {
		base = c.kPrev
	}
	p.Eligible = e
	p.Deadline = base + c.dMax
	p.Delay = c.dMax
	p.DelayMax = c.dMax
	c.kPrev = base + p.Length/c.rate

	a.place(p, e, now)
}

// OnTransmit implements network.Discipline: eq. 9 with the class
// guarantee. Every member packet is charged d_c, so the d_max - d_i
// term vanishes within a class.
func (a *Aggregate) OnTransmit(p *packet.Packet, finish float64) {
	hold := a.slack(p, finish)
	m := a.members.Get(p.Session)
	if m == nil || !m.jitter {
		p.Hold = 0
		return
	}
	p.Hold = hold
}

// HasSession implements network.SessionChecker.
func (a *Aggregate) HasSession(id int) bool { return a.members.Get(id) != nil }

// RemoveSession implements network.SessionRemover: the member leaves
// its class, and R_c shrinks by its rate. d_c stays at its running
// maximum while other members remain (loosening only, never
// tightening, mid-run); an emptied class resets fully so the K clock
// re-anchors on the next admission.
func (a *Aggregate) RemoveSession(id int) {
	m := a.members.Get(id)
	if m == nil {
		return
	}
	c := &a.classes[m.class]
	c.rate -= m.rate
	c.members--
	if c.members <= 0 {
		*c = aggClass{}
	} else if c.rate < 1e-9 {
		c.rate = 0
	}
	a.members.Delete(id)
}

// PurgeSession implements network.SessionPurger: the member's queued
// packets — regulated and eligible — are evicted and its class
// membership released.
func (a *Aggregate) PurgeSession(id int, drop func(*packet.Packet)) {
	a.purge(id, drop)
	a.RemoveSession(id)
}
