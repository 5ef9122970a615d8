// Package core implements the Leave-in-Time service discipline of
// Figueira & Pasquale (SIGCOMM '95) — the paper's primary contribution.
//
// A Leave-in-Time server emulates, per session, a fixed-rate reference
// server of the session's reserved rate. Each arriving packet receives
// an eligibility time E (eqs. 6-8) and a transmission deadline F
// (eq. 10), with the auxiliary reference-server clock K (eq. 11)
// carrying the coupling to the reserved rate:
//
//	E^n = t^n                    (no jitter control)
//	E^n = t^n + A^n              (jitter control; A from eq. 9, carried
//	                              in the packet header from node n-1)
//	F^n = max{E^n, K^n_{i-1}} + d^n_i
//	K^n = max{E^n, K^n_{i-1}} + L_i/r_s
//
// Sessions with delay jitter control pass through a delay regulator
// that holds packets until their eligibility times; eligible packets
// from all sessions are served in increasing deadline order. With
// d = L/r (admission control procedure 1, one class, epsilon = 0) and
// no regulators, the discipline reduces exactly to VirtualClock.
package core

import (
	"fmt"
	"math"

	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/sesstab"
)

// Config parametrizes a Leave-in-Time server instance (one per port).
type Config struct {
	// Capacity is the outgoing link rate C_n in bits/s, needed by the
	// holding-time computation (eq. 9).
	Capacity float64
	// LMax is the network-wide maximum packet length L_MAX in bits
	// (also eq. 9).
	LMax float64
	// Approximate selects the approximate sorted transmission queue of
	// the paper's Section 4, kept as its accuracy ablation: deadlines
	// are binned to days of LMax/Capacity and a day is served first
	// pushed first, so the emulation error is under one maximum-length
	// transmission time. It is a key transform on the same heap the
	// exact queue uses, not a faster structure (DESIGN.md, "Performance
	// model").
	Approximate bool
}

// LiT is a Leave-in-Time server: the scheduler attached to one port.
// It implements network.Discipline; the queueing half (Dequeue,
// NextEligible, Len, SetMetrics) is the embedded queues.
type LiT struct {
	// sessions is an ID-indexed table; the per-packet lookup in Enqueue
	// is indexed loads, not a map probe.
	sessions sesstab.Table[sessionState]
	// decls holds the rate and d(L) the sessions' states index.
	decls decls
	queues
}

// sessionState keeps what is a session's own at this port: eq. 11's
// clock and the running d_max. Its rate and d(L) are an entry of the
// port's declaration table. The state holds no pointer, so the table's
// pages are not scanned and a Put needs no write barrier.
type sessionState struct {
	kPrev float64 // K_{i-1}
	// seenDMax is d^n_max,s: the larger of the declared DMax and the
	// running maximum of d_i from 0. It keeps the eq.-9 term d_max - d_i
	// nonnegative for any packet mix.
	seenDMax float64
	decl     uint32 // the session's entry in the port's decls
	jitter   bool
	started  bool
}

// New returns a Leave-in-Time server for a port with the given
// configuration.
func New(cfg Config) *LiT {
	if cfg.Capacity <= 0 || cfg.LMax <= 0 {
		panic("core: Config requires positive Capacity and LMax")
	}
	l := &LiT{queues: newQueues(cfg.Capacity, cfg.LMax)}
	l.binned = cfg.Approximate
	return l
}

// AddSession implements network.Discipline.
func (l *LiT) AddSession(cfg network.SessionPort) {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("core: session %d has nonpositive rate", cfg.Session))
	}
	i := internDecl(&l.decls, cfg.D, cfg.Rate)
	// The fields are stored into the slot one by one: building the
	// state and copying it in reads back narrow stack stores as one wide
	// load, which stalls on store forwarding.
	s, fresh := l.sessions.Insert(cfg.Session, sessionState{})
	if !fresh {
		l.decls.Release(s.decl)
		*s = sessionState{}
	}
	s.decl, s.jitter = i, cfg.JitterControl
	if cfg.DMax > 0 { // 0 (none declared), below 0 or NaN leaves the maximum at 0
		s.seenDMax = cfg.DMax
	}
}

// Enqueue implements network.Discipline: it stamps the packet with its
// eligibility time and transmission deadline, then places it in the
// delay regulator (if not yet eligible) or the transmission queue.
func (l *LiT) Enqueue(p *packet.Packet, now float64) {
	s := l.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("core: packet for unregistered session %d", p.Session))
	}
	// Eligibility (eqs. 6-8). p.Hold carries A^n from the upstream
	// node; it is zero at the first node and for sessions without
	// jitter control.
	e := now
	if s.jitter {
		e += p.Hold
	}

	if !s.started {
		s.kPrev = now // K_0 = t_1 (eq. 11's initial condition)
		s.started = true
	}
	base := e
	if s.kPrev > base {
		base = s.kPrev
	}
	dl := l.decls.At(s.decl)
	rate := math.Float64frombits(dl.Key.rate)
	d := dl.Val.delay(p.Length, rate)
	if d > s.seenDMax {
		s.seenDMax = d
	}
	p.Eligible = e
	p.Deadline = base + d
	p.Delay = d
	p.DelayMax = s.seenDMax
	s.kPrev = base + p.Length/rate

	l.place(p, e, now)
}

// OnTransmit implements network.Discipline: for jitter-controlled
// sessions it computes the holding time A^{n+1} carried to the next
// node (eq. 9):
//
//	A = F^n + L_MAX/C_n - Fhat^n + d^n_max - d^n_i
//
// where Fhat is the actual finishing time. The value is provably
// nonnegative when the server is not saturated; the port clamps and
// counts violations.
func (l *LiT) OnTransmit(p *packet.Packet, finish float64) {
	a := l.slack(p, finish)
	s := l.sessions.Get(p.Session)
	if s == nil || !s.jitter {
		p.Hold = 0
		return
	}
	p.Hold = a + p.DelayMax - p.Delay
}

// RemoveSession implements network.SessionRemover: it frees the
// session's scheduling state at teardown. Any still-in-flight packet
// of the session is dropped by the port on arrival (cause "purged",
// via HasSession) instead of reaching Enqueue.
func (l *LiT) RemoveSession(id int) {
	// Get and Delete, not Take: Take's copy of the state stalls the
	// same way AddSession's would.
	if s := l.sessions.Get(id); s != nil {
		l.decls.Release(s.decl)
		l.sessions.Delete(id)
	}
}

// HasSession implements network.SessionChecker.
func (l *LiT) HasSession(id int) bool { return l.sessions.Get(id) != nil }

// PurgeSession implements network.SessionPurger: a mid-run teardown
// that evicts the session's queued packets — regulated and eligible —
// handing each to drop, then frees the session state.
func (l *LiT) PurgeSession(id int, drop func(*packet.Packet)) {
	l.purge(id, drop)
	l.RemoveSession(id)
}
