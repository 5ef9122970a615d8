package sched

import (
	"fmt"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
	"leaveintime/internal/sesstab"
)

// WFQ is Weighted Fair Queueing (Demers, Keshav & Shenker, SIGCOMM
// 1989), the packet-by-packet emulation of Generalized Processor
// Sharing that Parekh & Gallager analyzed as PGPS. Each packet is
// stamped with the GPS virtual finishing time
//
//	S_i = max{V(a_i), F_{i-1}},  F_i = S_i + L_i/w_s,
//
// where w_s is the session weight (its reserved rate) and V is the GPS
// virtual time, which advances at rate C / (sum of weights of
// GPS-backlogged sessions). Packets are served in increasing F order.
//
// Unlike Leave-in-Time and VirtualClock — whose deadlines depend only
// on the session's own past (paper, Section 4) — V(t) couples every
// stamp to the instantaneous set of backlogged sessions, which is what
// makes WFQ both "fair" and more expensive to compute. This
// implementation tracks the exact GPS fluid system: a session stays
// GPS-backlogged until V reaches its last finishing tag.
type WFQ struct {
	noHold
	// C is the link capacity in bits/s, needed to advance virtual time.
	C float64

	// sessions holds the states by value; backlog entries point into it
	// (a slot stays put until its id is removed).
	sessions sesstab.Table[wfqState]
	// admitted counts AddSession calls: the epoch that tells a slot's
	// present tenant from a purged one whose backlog tags are still
	// queued.
	admitted uint64
	ready    pq.Heap
	stamp    uint64

	v          float64 // current virtual time V
	lastUpdate float64 // real time at which v was computed
	weightSum  float64 // sum of weights of GPS-backlogged sessions
	backlog    tagHeap // (finish tag, session) entries, lazily deleted
}

type wfqState struct {
	epoch  uint64 // nonzero; see WFQ.admitted
	weight float64
	fPrev  float64 // last assigned virtual finish tag
	inB    bool    // GPS-backlogged
}

// NewWFQ returns a WFQ server for a link of the given capacity.
func NewWFQ(capacity float64) *WFQ {
	if capacity <= 0 {
		panic("sched: WFQ needs positive capacity")
	}
	return &WFQ{C: capacity}
}

// AddSession implements network.Discipline; the session weight is its
// reserved rate.
func (w *WFQ) AddSession(cfg network.SessionPort) {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("sched: WFQ session %d needs positive rate", cfg.Session))
	}
	w.admitted++
	w.sessions.Put(cfg.Session, wfqState{epoch: w.admitted, weight: cfg.Rate})
}

// Enqueue implements network.Discipline.
func (w *WFQ) Enqueue(p *packet.Packet, now float64) {
	_, fin := w.tag(p, now)
	w.stamp++
	w.ready.Push(pq.Entry{P: p, Key: fin, Stamp: w.stamp})
}

// tag advances the fluid system to now, enters the packet into it and
// returns its GPS virtual start and finish tags; the finish tag is also
// the packet's Deadline (virtual units; ordering is what matters).
func (w *WFQ) tag(p *packet.Packet, now float64) (start, fin float64) {
	s := w.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("sched: WFQ packet for unregistered session %d", p.Session))
	}
	w.advance(now)
	start = w.v
	if s.inB && s.fPrev > start {
		start = s.fPrev
	}
	fin = start + p.Length/s.weight
	s.fPrev = fin
	if !s.inB {
		s.inB = true
		w.weightSum += s.weight
	}
	w.backlog.push(tagEntry{tag: fin, s: s, epoch: s.epoch})
	p.Eligible = now
	p.Deadline = fin
	return start, fin
}

// advance moves the GPS fluid system from lastUpdate to real time t,
// processing virtual-time breakpoints where sessions drain out of the
// GPS backlog.
func (w *WFQ) advance(t float64) {
	for t > w.lastUpdate {
		if w.weightSum <= 0 {
			// GPS system idle: virtual time is frozen.
			w.lastUpdate = t
			return
		}
		e, ok := w.peekBacklog()
		if !ok {
			// No live tags: the GPS system is empty; clear any
			// floating-point residue in the weight sum.
			w.weightSum = 0
			w.lastUpdate = t
			return
		}
		// Real time needed to reach the next departure tag.
		need := (e.tag - w.v) * w.weightSum / w.C
		if w.lastUpdate+need > t {
			w.v += (t - w.lastUpdate) * w.C / w.weightSum
			w.lastUpdate = t
			return
		}
		w.lastUpdate += need
		w.v = e.tag
		w.backlog.popMin()
		// The session leaves the GPS backlog only if this tag is still
		// its latest packet's tag.
		if e.s.inB && e.s.fPrev == e.tag {
			w.unbacklog(e.s)
		}
	}
}

// peekBacklog returns the smallest live finish tag, discarding stale
// entries (tags superseded by later packets of the same session).
func (w *WFQ) peekBacklog() (tagEntry, bool) {
	for {
		e, ok := w.backlog.peek()
		if !ok {
			return tagEntry{}, false
		}
		if e.s.epoch == e.epoch && e.s.inB && e.tag <= e.s.fPrev {
			return e, true
		}
		w.backlog.popMin()
	}
}

// Dequeue implements network.Discipline.
func (w *WFQ) Dequeue(now float64) (*packet.Packet, bool) {
	w.advance(now)
	e, ok := w.ready.PopMin()
	return e.P, ok
}

// NextEligible implements network.Discipline; WFQ is work-conserving.
func (w *WFQ) NextEligible(now float64) (float64, bool) { return 0, false }

// Len implements network.Discipline.
func (w *WFQ) Len() int { return w.ready.Len() }

// HasSession implements network.SessionChecker.
func (w *WFQ) HasSession(id int) bool { return w.sessions.Get(id) != nil }

// RemoveSession implements network.SessionRemover. The session must be
// drained (not GPS-backlogged).
func (w *WFQ) RemoveSession(id int) {
	if s := w.sessions.Get(id); s != nil && s.inB {
		panic("sched: WFQ.RemoveSession while session is backlogged")
	}
	w.sessions.Delete(id)
}

// PurgeSession implements network.SessionPurger. Beyond the packet
// queue, the session must also leave the GPS fluid system: its weight
// comes out of the backlogged weight sum so virtual time advances at
// the correct rate for the survivors. Its backlog tags become stale
// and are discarded lazily by peekBacklog: they point at a slot that is
// zeroed until the table hands it to a later admission, whose epoch
// differs, so old tags can never match it.
func (w *WFQ) PurgeSession(id int, drop func(*packet.Packet)) {
	w.ready.Purge(id, drop)
	w.leaveGPS(id)
}

func (w *WFQ) leaveGPS(id int) {
	if s := w.sessions.Get(id); s != nil && s.inB {
		w.unbacklog(s)
	}
	w.sessions.Delete(id)
}

// unbacklog takes a session out of the GPS backlog.
func (w *WFQ) unbacklog(s *wfqState) {
	s.inB = false
	w.weightSum -= s.weight
	if w.weightSum < 1e-9 {
		w.weightSum = 0
	}
}

// tagEntry pairs a GPS finish tag with its session for the backlog
// heap.
type tagEntry struct {
	tag   float64
	s     *wfqState
	epoch uint64
}

// tagHeap is a hand-rolled min-heap ordered by tag (no boxing through
// container/heap's `any`, which allocated once per push and pop). It is
// the one heap of the package that is not a pq.Heap, for two reasons:
// it orders sessions, not packets, and by tag alone — tags tie across
// sessions, so this is not a total order and the pop sequence does
// depend on the sift. The sift therefore replicates container/heap's
// binary up/down move for move: the entry surfacing among equal tags —
// and with it the floating-point order of weightSum updates, which
// every later tag inherits — stays bit-identical to the goldens.
type tagHeap struct{ h []tagEntry }

func (t *tagHeap) peek() (tagEntry, bool) {
	if len(t.h) == 0 {
		return tagEntry{}, false
	}
	return t.h[0], true
}

func (t *tagHeap) push(e tagEntry) {
	t.h = append(t.h, e)
	h := t.h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].tag < h[i].tag) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (t *tagHeap) popMin() (tagEntry, bool) {
	h := t.h
	n := len(h) - 1
	if n < 0 {
		return tagEntry{}, false
	}
	min := h[0]
	h[0] = h[n]
	h[n] = tagEntry{} // release the session reference
	t.h = h[:n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].tag < h[j1].tag {
			j = j2
		}
		if !(h[j].tag < h[i].tag) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return min, true
}
