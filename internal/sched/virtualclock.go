package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// VirtualClock is L. Zhang's VirtualClock discipline (ToCS 1991): each
// packet is stamped with the finishing time it would have in the
// session's dedicated fixed-rate server,
//
//	F_i = max{t_i, F_{i-1}} + L_i/r_s,   F_0 = t_1   (paper's eq. 2)
//
// and packets are served in increasing stamp order. It is exactly the
// Leave-in-Time base algorithm (work-conserving, no regulators,
// d = L/r); tests cross-check the two implementations packet for
// packet.
type VirtualClock struct{ keyed[vcState] }

type vcState struct {
	rate    float64
	fPrev   float64
	started bool
}

// NewVirtualClock returns an empty VirtualClock server.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// AddSession implements network.Discipline.
func (v *VirtualClock) AddSession(cfg network.SessionPort) {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("sched: VirtualClock session %d needs positive rate", cfg.Session))
	}
	v.sessions.Put(cfg.Session, vcState{rate: cfg.Rate})
}

// Enqueue implements network.Discipline.
func (v *VirtualClock) Enqueue(p *packet.Packet, now float64) {
	s := v.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("sched: VirtualClock packet for unregistered session %d", p.Session))
	}
	if !s.started {
		s.fPrev = now // F_0 = t_1
		s.started = true
	}
	base := now
	if s.fPrev > base {
		base = s.fPrev
	}
	f := base + p.Length/s.rate
	s.fPrev = f
	p.Eligible = now
	p.Deadline = f
	p.Delay = p.Length / s.rate
	v.push(p, f)
}
