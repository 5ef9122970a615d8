package sched

import (
	"math"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
)

// StopAndGo is Golestani's Stop-and-Go queueing (SIGCOMM 1990), a
// framing-based non-work-conserving discipline. Time on the outgoing
// link is divided into frames of length T. A packet arriving during one
// frame becomes eligible only at the start of the next frame; eligible
// packets are served FCFS. Admission requires every session to be
// (r_s, T)-smooth — at most r_s*T bits per frame — which the
// sessions' token-bucket shaping provides.
//
// This implementation uses a single frame size per port with frame
// boundaries at multiples of T (phase offsets between links are
// absorbed into the per-link frame delay, which the delay bound's alpha
// in [1,2) accounts for).
type StopAndGo struct {
	noHold
	// T is the frame length in seconds.
	T float64

	ready   pq.Heap // keyed by eligibility (frame start), FCFS within
	pending pq.Heap // packets waiting for their frame boundary
	stamp   uint64
}

// NewStopAndGo returns a Stop-and-Go server with frame length t.
func NewStopAndGo(t float64) *StopAndGo {
	if t <= 0 {
		panic("sched: Stop-and-Go needs positive frame length")
	}
	return &StopAndGo{T: t}
}

// AddSession implements network.Discipline (per-session smoothness is
// the admission procedure's concern, not the scheduler's).
func (g *StopAndGo) AddSession(network.SessionPort) {}

// Enqueue implements network.Discipline.
func (g *StopAndGo) Enqueue(p *packet.Packet, now float64) {
	// Eligible at the start of the frame after the arrival frame.
	e := (math.Floor(now/g.T) + 1) * g.T
	p.Eligible = e
	p.Deadline = e + g.T // must leave within its departure frame
	g.stamp++
	en := pq.Entry{P: p, Key: e, Stamp: g.stamp}
	if e > now {
		g.pending.Push(en)
		return
	}
	g.ready.Push(en)
}

// Dequeue implements network.Discipline.
func (g *StopAndGo) Dequeue(now float64) (*packet.Packet, bool) {
	g.release(now)
	e, ok := g.ready.PopMin()
	return e.P, ok
}

// NextEligible implements network.Discipline.
func (g *StopAndGo) NextEligible(now float64) (float64, bool) {
	g.release(now)
	if g.ready.Len() > 0 {
		return now, true
	}
	return g.pending.PeekMin()
}

func (g *StopAndGo) release(now float64) {
	for {
		e, ok := g.pending.PopDue(now)
		if !ok {
			return
		}
		g.stamp++
		e.Stamp = g.stamp
		g.ready.Push(e)
	}
}

// Len implements network.Discipline.
func (g *StopAndGo) Len() int { return g.ready.Len() + g.pending.Len() }

// PurgeSession implements network.SessionPurger (Stop-and-Go keeps no
// per-session state; only queued packets are evicted).
func (g *StopAndGo) PurgeSession(id int, drop func(*packet.Packet)) {
	g.ready.Purge(id, drop)
	g.pending.Purge(id, drop)
}
