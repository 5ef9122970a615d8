// Package sched implements the service disciplines the Leave-in-Time
// paper compares against (Section 4): FCFS, VirtualClock, Weighted Fair
// Queueing (PGPS), Stop-and-Go, Delay-EDD, and Jitter-EDD. Every
// discipline satisfies network.Discipline, so any of them can be
// plugged into a port in place of Leave-in-Time.
package sched

import (
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
)

// FCFS is a first-come-first-served server: the conventional,
// guarantee-free baseline the paper's introduction motivates against.
type FCFS struct {
	noHold
	q pq.FIFO
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return &FCFS{} }

// AddSession implements network.Discipline (FCFS keeps no per-session
// state).
func (f *FCFS) AddSession(network.SessionPort) {}

// Enqueue implements network.Discipline.
func (f *FCFS) Enqueue(p *packet.Packet, now float64) {
	p.Eligible = now
	p.Deadline = now
	f.q.Push(p)
}

// Dequeue implements network.Discipline.
func (f *FCFS) Dequeue(now float64) (*packet.Packet, bool) { return f.q.Pop() }

// NextEligible implements network.Discipline; FCFS never holds packets.
func (f *FCFS) NextEligible(now float64) (float64, bool) { return 0, false }

// Len implements network.Discipline.
func (f *FCFS) Len() int { return f.q.Len() }

// PurgeSession implements network.SessionPurger.
func (f *FCFS) PurgeSession(id int, drop func(*packet.Packet)) { f.q.Purge(id, drop) }
