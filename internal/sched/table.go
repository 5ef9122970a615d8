package sched

import (
	"fmt"

	"leaveintime/internal/core"
	"leaveintime/internal/network"
)

// Row is one discipline of the repository: the name reports print, a
// constructor, and the three properties its Go type cannot show. What
// the type does show is not declared here: a discipline keeps
// per-session state exactly when it implements network.SessionChecker.
type Row struct {
	Name string
	// New builds the discipline for one port of the given capacity
	// (bits/s) and network-wide maximum packet length lMax (bits). frame
	// (s) is the framing disciplines' frame time, Stop-and-Go's T and
	// HRR's one level; the others ignore it.
	New        func(capacity, lMax, frame float64) network.Discipline
	Conserving Conserving
	Order      Order
	// Bound is what the discipline promises each of a run's flows over
	// its route of ports built by New, asked once with every flow: its
	// delay, jitter and buffer bounds, or the reason it owes none (see
	// DESIGN "What each discipline promises").
	Bound func(flows []Flow, routes [][]Hop, lMax, frame float64) []Promise
}

// Conserving says when a discipline is work-conserving: when Dequeue
// never comes back empty while the discipline holds a packet.
type Conserving uint8

const (
	// Idles: a regulator or a frame may hold packets back.
	Idles Conserving = iota
	// Conserves whatever its sessions ask for.
	Conserves
	// ConservesUnlessJitter: only sessions under delay jitter control
	// pass through a regulator (Leave-in-Time, eqs. 6-8).
	ConservesUnlessJitter
)

// Order says whether Dequeue takes the least Deadline stamp among the
// eligible packets held, for the rows whose stamp is a due date the
// discipline promises: eq. 10's F for Leave-in-Time, its special case
// the VirtualClock stamp, the Delay-EDD due date and LSTF's slack due
// date. FCFS's arrival stamp and the fair queues' virtual finishing
// times are not due dates.
type Order uint8

const (
	// Unordered: no promise is kept in the Deadline stamp.
	Unordered Order = iota
	// ByDeadline: least deadline first.
	ByDeadline
	// ByDay: least deadline first to within one day of L_MAX/C, the
	// approximate transmission queue of the paper's Section 4.
	ByDay
)

// Table is every discipline of the repository, Leave-in-Time first: the
// order the conformance battery runs and reports them in.
var Table = []Row{
	{Name: "lit", Conserving: ConservesUnlessJitter, Order: ByDeadline, Bound: each(eq12(true, "eq. 12")),
		New: func(capacity, lMax, _ float64) network.Discipline {
			return core.New(core.Config{Capacity: capacity, LMax: lMax})
		}},
	{Name: "lit-approx", Conserving: ConservesUnlessJitter, Order: ByDay,
		Bound: each(none("held to the exact queue instead")),
		New: func(capacity, lMax, _ float64) network.Discipline {
			return core.New(core.Config{Capacity: capacity, LMax: lMax, Approximate: true})
		}},
	{Name: "virtualclock", Conserving: Conserves, Order: ByDeadline, Bound: each(eq12(false, "eq. 12 (special case)")),
		New: func(_, _, _ float64) network.Discipline { return NewVirtualClock() }},
	{Name: "wfq", Conserving: Conserves, Bound: each(pgps),
		New: func(capacity, _, _ float64) network.Discipline { return NewWFQ(capacity) }},
	{Name: "wf2q", Conserving: Conserves, Bound: each(pgps),
		New: func(capacity, _, _ float64) network.Discipline { return NewWF2Q(capacity) }},
	{Name: "scfq", Conserving: Conserves, Bound: each(scfq),
		New: func(_, _, _ float64) network.Discipline { return NewSCFQ() }},
	{Name: "fcfs", Conserving: Conserves, Bound: fifo,

		New: func(_, _, _ float64) network.Discipline { return NewFCFS() }},
	{Name: "delayedd", Conserving: Conserves, Order: ByDeadline, Bound: each(edd(false)),
		New: func(_, _, _ float64) network.Discipline { return NewDelayEDD() }},
	{Name: "jitteredd", Conserving: Idles, Bound: each(edd(true)),
		New: func(_, _, _ float64) network.Discipline { return NewJitterEDD() }},
	{Name: "stopandgo", Conserving: Idles, Bound: each(framed(stopAndGoFits, true)),
		New: func(_, _, frame float64) network.Discipline { return NewStopAndGo(frame) }},
	{Name: "hrr", Conserving: Idles, Bound: each(framed(hrrFits, false)),
		New: func(_, lMax, frame float64) network.Discipline { return NewHRR(lMax, frame) }},
	{Name: "rcsp", Conserving: Idles, Bound: each(none("level test not run")),
		New: func(_, _, _ float64) network.Discipline { return NewRCSP(2) }},
	{Name: "lstf", Conserving: Conserves, Order: ByDeadline, Bound: each(none("held to its replay of lit instead")),
		New: func(_, _, _ float64) network.Discipline { return NewLSTF() }},
}

// Lookup returns the row of Table with the given name; it panics on a
// name no row has, which only a typo in the caller can produce.
func Lookup(name string) Row {
	for _, r := range Table {
		if r.Name == name {
			return r
		}
	}
	panic(fmt.Sprintf("sched: no discipline named %q", name))
}

// WorkConserving says whether the discipline never idles while it
// holds a packet, given whether any session asks for jitter control.
func (r Row) WorkConserving(jitterControl bool) bool {
	return r.Conserving == Conserves || r.Conserving == ConservesUnlessJitter && !jitterControl
}

// DeadlineOrdered says whether the discipline serves eligible packets
// least Deadline first, and with how much slack (s) on a port of the
// given capacity: none for an exact queue, one day for the approximate
// one.
func (r Row) DeadlineOrdered(capacity, lMax float64) (slack float64, ordered bool) {
	if r.Order == ByDay {
		slack = lMax / capacity
	}
	return slack, r.Order != Unordered
}
