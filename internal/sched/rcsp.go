package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
	"leaveintime/internal/sesstab"
)

// RCSP is Zhang & Ferrari's Rate-Controlled Static-Priority queueing
// (INFOCOM 1993), the discipline the paper credits with avoiding both
// framing strategies and sorted priority queues. Each node separates
// rate control from delay control:
//
//   - a per-session *rate controller* (regulator) reshapes the session
//     to its declared minimum interarrival x_min by holding early
//     packets until Eligible_i = max(t_i, Eligible_{i-1} + x_min);
//   - eligible packets enter one of a small number of static-priority
//     FIFO queues; the server always takes the head of the
//     highest-priority (lowest-numbered) nonempty queue.
//
// A session's priority level carries a per-node delay bound; the
// schedulability test at establishment time (not re-implemented here —
// sessions declare their level) ensures each level's bound holds.
type RCSP struct {
	levels   int
	sessions sesstab.Table[rcspState]
	queues   []pq.FIFO
	// held packets ordered by eligibility.
	regulator pq.Heap
	stamp     uint64
}

type rcspState struct {
	cfg      network.SessionPort
	level    int
	eligible float64 // Eligible_{i-1}
	started  bool
}

// NewRCSP returns an RCSP server with the given number of priority
// levels (level 1 is served first).
func NewRCSP(levels int) *RCSP {
	if levels <= 0 {
		panic("sched: RCSP needs at least one priority level")
	}
	return &RCSP{
		levels: levels,
		queues: make([]pq.FIFO, levels),
	}
}

// AddSessionLevel registers a session at the given priority level
// (1-based). The session's XMin field of SessionPort configures its
// rate controller; LocalDelay documents the level's delay bound (used
// only for the packet's Deadline stamp).
func (r *RCSP) AddSessionLevel(cfg network.SessionPort, level int) {
	if level < 1 || level > r.levels {
		panic(fmt.Sprintf("sched: RCSP level %d out of range 1..%d", level, r.levels))
	}
	r.sessions.Put(cfg.Session, rcspState{cfg: cfg, level: level})
}

// AddSession implements network.Discipline; sessions registered this
// way join the lowest-priority level. Use AddSessionLevel for real
// level assignment.
func (r *RCSP) AddSession(cfg network.SessionPort) {
	r.AddSessionLevel(cfg, r.levels)
}

// Enqueue implements network.Discipline.
func (r *RCSP) Enqueue(p *packet.Packet, now float64) {
	s := r.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("sched: RCSP packet for unregistered session %d", p.Session))
	}
	// Jitter-controlling RCSP holds the packet for the slack carried
	// from the upstream node (p.Hold is 0 otherwise), then applies the
	// x_min rate control.
	e := now + p.Hold
	if s.started && s.cfg.XMin > 0 && s.eligible+s.cfg.XMin > e {
		e = s.eligible + s.cfg.XMin
	}
	s.eligible = e
	s.started = true
	p.Eligible = e
	p.Deadline = e + s.cfg.LocalDelay
	if e > now {
		r.stamp++
		r.regulator.Push(pq.Entry{P: p, Key: e, Stamp: r.stamp})
		return
	}
	r.queues[s.level-1].Push(p)
}

// Dequeue implements network.Discipline.
func (r *RCSP) Dequeue(now float64) (*packet.Packet, bool) {
	r.release(now)
	for i := range r.queues {
		if p, ok := r.queues[i].Pop(); ok {
			return p, true
		}
	}
	return nil, false
}

// NextEligible implements network.Discipline.
func (r *RCSP) NextEligible(now float64) (float64, bool) {
	r.release(now)
	for i := range r.queues {
		if r.queues[i].Len() > 0 {
			return now, true
		}
	}
	return r.regulator.PeekMin()
}

func (r *RCSP) release(now float64) {
	for {
		e, ok := r.regulator.PopDue(now)
		if !ok {
			return
		}
		r.queues[r.sessions.Get(e.P.Session).level-1].Push(e.P)
	}
}

// OnTransmit implements network.Discipline. RCSP's jitter-controlling
// variant carries the slack to the next node's regulator like
// Jitter-EDD; sessions opt in via JitterControl.
func (r *RCSP) OnTransmit(p *packet.Packet, finish float64) {
	s := r.sessions.Get(p.Session)
	if s != nil && s.cfg.JitterControl {
		p.Hold = p.Deadline - finish
		if p.Hold < 0 {
			p.Hold = 0
		}
		return
	}
	p.Hold = 0
}

// Len implements network.Discipline.
func (r *RCSP) Len() int {
	n := r.regulator.Len()
	for i := range r.queues {
		n += r.queues[i].Len()
	}
	return n
}

// HasSession implements network.SessionChecker.
func (r *RCSP) HasSession(id int) bool { return r.sessions.Get(id) != nil }

// RemoveSession implements network.SessionRemover.
func (r *RCSP) RemoveSession(id int) { r.sessions.Delete(id) }

// PurgeSession implements network.SessionPurger: the rate-controller
// regulator and every static-priority FIFO are swept.
func (r *RCSP) PurgeSession(id int, drop func(*packet.Packet)) {
	r.regulator.Purge(id, drop)
	for i := range r.queues {
		r.queues[i].Purge(id, drop)
	}
	r.sessions.Delete(id)
}
