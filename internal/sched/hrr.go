package sched

import (
	"fmt"
	"math"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
	"leaveintime/internal/sesstab"
)

// HRR is Hierarchical Round Robin (Kalmanek, Kanakia & Keshav, GlobeCom
// 1990), a framing-based non-work-conserving discipline the paper
// groups with Stop-and-Go: it offers the same style of delay bound but
// no lower bound on delay. The link's time is divided into a hierarchy
// of levels; level l has frame time Frame_l and grants each of its
// sessions Slots_l packet transmissions per frame.
//
// This implementation realizes the hierarchy with per-session slot
// credits replenished at each of the session's level frame boundaries:
// a session may transmit only while it holds credit, and unused
// credits do not carry over (the non-work-conserving frame property).
// Within a frame, sessions are served round robin in registration
// order. A session's allocated rate is Slots * LMax / Frame of its
// level; finer rate granularity needs a slower level — the
// bandwidth/delay coupling the paper criticizes framing schemes for.
type HRR struct {
	noHold
	// LMax is the slot size in bits (one maximum-length packet).
	LMax float64

	levels   []hrrLevel
	sessions sesstab.Table[hrrState]
	order    []int // round-robin order (registration order)
	cursor   int
}

type hrrLevel struct {
	frame float64
}

type hrrState struct {
	level   int
	slots   int
	credit  int
	nextRef float64 // next frame boundary for this session's level
	q       pq.FIFO
}

// NewHRR returns an HRR server with slot size lMax (bits) and the given
// frame times, one per level, fastest first.
func NewHRR(lMax float64, frames ...float64) *HRR {
	if lMax <= 0 || len(frames) == 0 {
		panic("sched: HRR needs a slot size and at least one level")
	}
	h := &HRR{LMax: lMax}
	prev := 0.0
	for _, f := range frames {
		if f <= prev {
			panic("sched: HRR frame times must be positive and increasing")
		}
		h.levels = append(h.levels, hrrLevel{frame: f})
		prev = f
	}
	return h
}

// AddSessionSlots registers a session at the given level (1-based) with
// the given slots per frame.
func (h *HRR) AddSessionSlots(cfg network.SessionPort, level, slots int) {
	if level < 1 || level > len(h.levels) {
		panic(fmt.Sprintf("sched: HRR level %d out of range", level))
	}
	if slots < 1 {
		panic("sched: HRR needs at least one slot")
	}
	h.sessions.Put(cfg.Session, hrrState{level: level, slots: slots})
	h.order = append(h.order, cfg.Session)
}

// AddSession implements network.Discipline: the session is placed at
// the slowest level with the number of slots its rate requires.
func (h *HRR) AddSession(cfg network.SessionPort) {
	level := len(h.levels)
	frame := h.levels[level-1].frame
	slots := int(math.Ceil(cfg.Rate * frame / h.LMax))
	if slots < 1 {
		slots = 1
	}
	h.AddSessionSlots(cfg, level, slots)
}

// Enqueue implements network.Discipline.
func (h *HRR) Enqueue(p *packet.Packet, now float64) {
	s := h.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("sched: HRR packet for unregistered session %d", p.Session))
	}
	p.Eligible = now
	s.q.Push(p)
}

// refresh replenishes credits at frame boundaries that have passed.
func (h *HRR) refresh(now float64) {
	for _, id := range h.order {
		s := h.sessions.Get(id)
		frame := h.levels[s.level-1].frame
		if now >= s.nextRef {
			// A new frame: fresh credits, stale ones discarded.
			s.credit = s.slots
			s.nextRef = (math.Floor(now/frame) + 1) * frame
		}
	}
}

// Dequeue implements network.Discipline.
func (h *HRR) Dequeue(now float64) (*packet.Packet, bool) {
	h.refresh(now)
	n := len(h.order)
	for i := 0; i < n; i++ {
		id := h.order[(h.cursor+i)%n]
		s := h.sessions.Get(id)
		if s.credit > 0 && s.q.Len() > 0 {
			p, _ := s.q.Pop()
			s.credit--
			h.cursor = (h.cursor + i + 1) % n
			p.Deadline = s.nextRef // must leave within the frame
			return p, true
		}
	}
	return nil, false
}

// NextEligible implements network.Discipline: with packets queued but
// no credits, the next opportunity is the earliest frame boundary of a
// backlogged session.
func (h *HRR) NextEligible(now float64) (float64, bool) {
	h.refresh(now)
	best := math.Inf(1)
	for _, id := range h.order {
		s := h.sessions.Get(id)
		if s.q.Len() == 0 {
			continue
		}
		if s.credit > 0 {
			return now, true
		}
		if s.nextRef < best {
			best = s.nextRef
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// Len implements network.Discipline.
func (h *HRR) Len() int {
	n := 0
	h.sessions.Range(func(_ int, s *hrrState) { n += s.q.Len() })
	return n
}

// HasSession implements network.SessionChecker.
func (h *HRR) HasSession(id int) bool { return h.sessions.Get(id) != nil }

// RemoveSession implements network.SessionRemover.
func (h *HRR) RemoveSession(id int) {
	if s := h.sessions.Get(id); s != nil && s.q.Len() > 0 {
		panic("sched: HRR.RemoveSession with queued packets")
	}
	h.PurgeSession(id, nil)
}

// PurgeSession implements network.SessionPurger: the session's FIFO is
// drained in order and its round-robin slot removed without disturbing
// the cursor position of the survivors.
func (h *HRR) PurgeSession(id int, drop func(*packet.Packet)) {
	s := h.sessions.Get(id)
	if s == nil {
		return
	}
	s.q.Purge(id, drop)
	h.sessions.Delete(id)
	for i, oid := range h.order {
		if oid != id {
			continue
		}
		h.order = append(h.order[:i], h.order[i+1:]...)
		if i < h.cursor {
			h.cursor--
		}
		break
	}
	if len(h.order) == 0 {
		h.cursor = 0
	} else {
		h.cursor %= len(h.order)
	}
}
