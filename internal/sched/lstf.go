package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// LSTF is Least Slack Time First (Mittal et al., "Universal Packet
// Scheduling", NSDI 2016): at every node the packet with the least
// remaining slack — time budget left before its end-to-end deadline —
// is served first. UPS shows LSTF can replay (almost) any other
// discipline's schedule when packets carry the right slack values,
// which makes it the natural head-to-head opponent for Leave-in-Time:
// the paper's leave-in-time header field (packet.Hold) is literally a
// slack carrier, so LSTF reads its slack straight from it.
//
// Concretely, a packet arriving at time t with carried slack A
// (p.Hold, zero at the first node unless injected by a replay
// harness) and per-node budget d is due at
//
//	due = t + A + d,
//
// and packets are served in increasing due order (arrival-stamp tie
// break). OnTransmit writes the unused slack due - finish back into
// the header, so downstream nodes see exactly the budget this node
// did not consume — queueing and transmission eat slack, propagation
// does not. The per-node budget d comes from the session
// configuration in priority order: the admission-assigned D function,
// else LocalDelay, else L/rate (the VirtualClock-style default). A
// replay harness that wants pure end-to-end slack semantics registers
// sessions with a zero-budget D.
//
// LSTF is work-conserving and keeps no regulators; like the other
// baselines it is the shared skeleton plus a key, so the hot path does
// not allocate. A deadline miss (missCounter) is a transmission
// finishing after the packet's due time, i.e. the packet left this node
// with negative slack.
type LSTF struct {
	keyed[lstfState]
	missCounter
}

type lstfState struct {
	cfg network.SessionPort
}

// NewLSTF returns an empty LSTF server.
func NewLSTF() *LSTF { return &LSTF{} }

// AddSession implements network.Discipline. The session must provide
// some source for the per-node budget: a D function, a positive
// LocalDelay, or a positive rate (construction-time validation).
func (l *LSTF) AddSession(cfg network.SessionPort) {
	if cfg.D == nil && cfg.LocalDelay <= 0 && cfg.Rate <= 0 {
		panic(fmt.Sprintf("sched: LSTF session %d needs a D function, LocalDelay or positive rate", cfg.Session))
	}
	l.sessions.Put(cfg.Session, lstfState{cfg: cfg})
}

func (s *lstfState) budget(length float64) float64 {
	switch {
	case s.cfg.D != nil:
		return s.cfg.D(length)
	case s.cfg.LocalDelay > 0:
		return s.cfg.LocalDelay
	default:
		return length / s.cfg.Rate
	}
}

// Enqueue implements network.Discipline.
func (l *LSTF) Enqueue(p *packet.Packet, now float64) {
	s := l.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("sched: LSTF packet for unregistered session %d", p.Session))
	}
	d := s.budget(p.Length)
	// Serving by due time and serving by slack (due - now) order
	// packets identically at any single instant; due is the
	// time-invariant key.
	due := now + p.Hold + d
	p.Eligible = now
	p.Deadline = due
	p.Delay = d
	l.push(p, due)
}

// OnTransmit implements network.Discipline: the unused slack
// due - finish is carried downstream in the packet header. A late
// packet carries zero (slack debt is not propagated; the port's
// HoldClamped accounting is reserved for eq.-9 saturation).
func (l *LSTF) OnTransmit(p *packet.Packet, finish float64) {
	l.countMiss(p, finish)
	h := p.Deadline - finish
	if h < 0 {
		h = 0
	}
	p.Hold = h
}
