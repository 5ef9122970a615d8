package sched

import (
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
)

// WF2Q is Worst-case Fair Weighted Fair Queueing (Bennett & Zhang,
// INFOCOM 1996) — the refinement of WFQ published the year after the
// Leave-in-Time paper, included here as the natural "future work"
// comparison point. WF2Q keeps WFQ's GPS virtual time and finish tags
// but considers a packet eligible for service only once its GPS service
// has *started* (virtual start tag <= V(now)). This removes WFQ's
// ability to run up to one round ahead of GPS and achieves worst-case
// fairness, at the cost of a non-work-conserving-looking eligibility
// check (the discipline is still work-conserving: some queued packet is
// always eligible whenever the GPS system is backlogged).
//
// In queue terms that is a delay regulator in virtual time in front of
// WFQ's sorted queue: the embedded WFQ supplies the GPS machinery, the
// session bookkeeping (AddSession, RemoveSession, HasSession) and the
// ready queue keyed by finish tag; pending holds the packets whose GPS
// service has not started, keyed by start tag.
type WF2Q struct {
	wfq
	pending pq.Heap
}

// wfq lets WF2Q embed the WFQ server without exporting it as a field.
type wfq = WFQ

// NewWF2Q returns a WF2Q server for a link of the given capacity.
func NewWF2Q(capacity float64) *WF2Q {
	return &WF2Q{wfq: *NewWFQ(capacity)}
}

// Enqueue implements network.Discipline.
func (w *WF2Q) Enqueue(p *packet.Packet, now float64) {
	start, _ := w.tag(p, now)
	w.stamp++
	w.pending.Push(pq.Entry{P: p, Key: start, Stamp: w.stamp})
}

// Dequeue implements network.Discipline: among packets whose GPS
// service has begun (start tag <= V), pick the smallest finish tag.
func (w *WF2Q) Dequeue(now float64) (*packet.Packet, bool) {
	w.advance(now)
	w.release()
	if w.ready.Len() == 0 {
		// GPS backlogged but nothing eligible cannot happen when the
		// link has been busy; after idle gaps V may trail arrivals, so
		// nudge V to the smallest start tag.
		start, ok := w.pending.PeekMin()
		if !ok {
			return nil, false
		}
		w.v = start
		w.release()
	}
	e, ok := w.ready.PopMin()
	return e.P, ok
}

// release moves the packets whose GPS service has started into the
// ready queue under their finish tags.
func (w *WF2Q) release() {
	for {
		e, ok := w.pending.PopDue(w.v + 1e-12)
		if !ok {
			return
		}
		e.Key = e.P.Deadline
		w.ready.Push(e)
	}
}

// NextEligible implements network.Discipline; WF2Q always has an
// eligible packet while backlogged (see Dequeue), so it never asks for
// a wake-up.
func (w *WF2Q) NextEligible(now float64) (float64, bool) {
	if w.Len() > 0 {
		return now, true
	}
	return 0, false
}

// Len implements network.Discipline.
func (w *WF2Q) Len() int { return w.ready.Len() + w.pending.Len() }

// PurgeSession implements network.SessionPurger. A session's started
// packets precede its unstarted ones, so sweeping ready first hands its
// packets to drop in their arrival order.
func (w *WF2Q) PurgeSession(id int, drop func(*packet.Packet)) {
	w.ready.Purge(id, drop)
	w.pending.Purge(id, drop)
	w.leaveGPS(id)
}
