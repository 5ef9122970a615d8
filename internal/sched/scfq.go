package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// SCFQ is Golestani's Self-Clocked Fair Queueing (INFOCOM 1994,
// reference [12] of the paper): a fair-queueing scheme that replaces
// WFQ's GPS-fluid virtual time with a self-clocked one — the virtual
// time is simply the service tag of the packet currently in service.
// Tags are
//
//	F_i = max{F_{i-1}, V(a_i)} + L_i/w_s,
//
// and packets are served in increasing tag order. The approximation
// costs an extra per-hop delay term relative to PGPS but removes the
// fluid-tracking bookkeeping entirely; it sits between VirtualClock
// (self-contained per session) and WFQ (global fluid state) in the
// design space the paper's Section 4 maps out.
type SCFQ struct{ keyed[scfqState] }

type scfqState struct {
	weight float64
	fPrev  float64
}

// NewSCFQ returns an empty SCFQ server.
func NewSCFQ() *SCFQ { return &SCFQ{} }

// AddSession implements network.Discipline; the weight is the reserved
// rate.
func (s *SCFQ) AddSession(cfg network.SessionPort) {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("sched: SCFQ session %d needs positive rate", cfg.Session))
	}
	s.sessions.Put(cfg.Session, scfqState{weight: cfg.Rate})
}

// Enqueue implements network.Discipline. V is the skeleton's served
// key: the tag of the packet most recently taken for service. It is
// kept across idle periods rather than reset to 0 at the start of each
// busy period as Golestani does, which is equivalent: tags are assigned
// at or above V and served in increasing order, so V never decreases,
// and when the server drains V has reached every session's last tag —
// a new busy period re-anchors every session at V without any
// per-session bookkeeping.
func (s *SCFQ) Enqueue(p *packet.Packet, now float64) {
	st := s.sessions.Get(p.Session)
	if st == nil {
		panic(fmt.Sprintf("sched: SCFQ packet for unregistered session %d", p.Session))
	}
	start := s.served
	if st.fPrev > start {
		start = st.fPrev
	}
	f := start + p.Length/st.weight
	st.fPrev = f
	p.Eligible = now
	p.Deadline = f
	s.push(p, f)
}
