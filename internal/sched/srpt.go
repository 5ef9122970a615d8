package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// SRPT is Shortest Remaining Processing Time at packet granularity:
// among queued packets, the one with the least remaining service
// demand — its transmission time on this link, proportional to its
// length — is served first, ties broken by arrival order. Transmission
// is not preempted, so at the packet level SRPT coincides with
// shortest-job-first; it is the classic mean-delay-optimal reference
// point in the UPS comparison set, with no notion of deadlines or
// reserved rates at all.
//
// SRPT is work-conserving and stateless per packet; the per-session
// table exists only so registration, removal and mid-run purges behave
// like every other baseline.
type SRPT struct{ keyed[struct{}] }

// NewSRPT returns an empty SRPT server.
func NewSRPT() *SRPT { return &SRPT{} }

// AddSession implements network.Discipline.
func (s *SRPT) AddSession(cfg network.SessionPort) {
	s.sessions.Put(cfg.Session, struct{}{})
}

// Enqueue implements network.Discipline. The queue key is the packet
// length: same order as length/C, without needing the link capacity.
func (s *SRPT) Enqueue(p *packet.Packet, now float64) {
	if s.sessions.Get(p.Session) == nil {
		panic(fmt.Sprintf("sched: SRPT packet for unregistered session %d", p.Session))
	}
	p.Eligible = now
	p.Deadline = 0
	p.Delay = 0
	s.push(p, p.Length)
}
