package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// LSTF is Least Slack Time First in the form of Mittal et al.,
// "Universal Packet Scheduling" (NSDI 2016): at every node the packet
// with the least remaining slack is served first, and the slack is the
// packet's own, carried in its header. UPS shows that LSTF replays any
// schedule in which no packet waits at more than two ports, given each
// packet's slack from that schedule. The paper's leave-in-time header
// field (packet.Hold, eq. 9) is such a slack carrier, so LSTF reads its
// slack straight from it and nothing from the session's configuration.
//
// A packet arriving at time t with carried slack A (p.Hold, set at the
// first node by Session.SetInitialSlack and zero without it) is due at
//
//	due = t + A,
//
// and packets are served in increasing due order (arrival-stamp tie
// break). OnTransmit writes the unused slack due - finish back into the
// header, so downstream nodes see exactly the slack this node did not
// consume: queueing and transmission eat slack, propagation does not.
//
// LSTF is work-conserving and keeps no regulators; like the other
// baselines it is the shared skeleton plus a key, so the hot path does
// not allocate. A deadline miss (missCounter) is a transmission
// finishing after the packet's due time, i.e. the packet left this node
// with negative slack.
type LSTF struct {
	keyed[struct{}]
	missCounter
}

// NewLSTF returns an empty LSTF server.
func NewLSTF() *LSTF { return &LSTF{} }

// AddSession implements network.Discipline.
func (l *LSTF) AddSession(cfg network.SessionPort) {
	l.sessions.Put(cfg.Session, struct{}{})
}

// Enqueue implements network.Discipline.
func (l *LSTF) Enqueue(p *packet.Packet, now float64) {
	if l.sessions.Get(p.Session) == nil {
		panic(fmt.Sprintf("sched: LSTF packet for unregistered session %d", p.Session))
	}
	// Serving by due time and serving by slack (due - now) order
	// packets identically at any single instant; due is the
	// time-invariant key.
	due := now + p.Hold
	p.Eligible = now
	p.Deadline = due
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
