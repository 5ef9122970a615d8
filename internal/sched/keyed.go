package sched

import (
	"leaveintime/internal/metrics"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
	"leaveintime/internal/sesstab"
)

// keyed is the skeleton of a work-conserving sorted-priority
// discipline: a per-session table, one pq.Heap of packets keyed
// by whatever the discipline's Enqueue computes, and the arrival stamp
// that breaks key ties. Embedding it supplies everything of
// network.Discipline, SessionRemover, SessionChecker and SessionPurger
// that does not depend on the key, so a discipline is its session state
// S, its AddSession and the Enqueue that calls push.
//
// A purge (network.SessionPurger, here and in every other discipline of
// the package) evicts the departing session's queued packets, handing
// each to drop, and frees its state so the same ID can be re-admitted.
// Queue keys and stamps of every other session survive untouched, and
// pop order is a pure function of them, so a purge is unobservable
// except through the dropped packets themselves.
type keyed[S any] struct {
	noHold
	// sessions is an ID-indexed table; the per-packet lookup in Enqueue
	// is indexed loads, not a map probe.
	sessions sesstab.Table[S]
	ready    pq.Heap
	stamp    uint64
	// served is the key of the packet most recently taken for service
	// (SCFQ's self-clocked virtual time).
	served float64
}

func (k *keyed[S]) push(p *packet.Packet, key float64) {
	k.stamp++
	k.ready.Push(pq.Entry{P: p, Key: key, Stamp: k.stamp})
}

// Dequeue implements network.Discipline.
func (k *keyed[S]) Dequeue(now float64) (*packet.Packet, bool) {
	e, ok := k.ready.PopMin()
	if ok {
		k.served = e.Key
	}
	return e.P, ok
}

// NextEligible implements network.Discipline; a work-conserving
// discipline never holds packets.
func (k *keyed[S]) NextEligible(now float64) (float64, bool) { return 0, false }

// Len implements network.Discipline.
func (k *keyed[S]) Len() int { return k.ready.Len() }

// RemoveSession implements network.SessionRemover.
func (k *keyed[S]) RemoveSession(id int) { k.sessions.Delete(id) }

// HasSession implements network.SessionChecker. A port consults it on
// each arrival and converts packets of unregistered sessions — the
// late-in-flight race of a mid-run purge — into traced "purged" drops
// instead of letting them reach Enqueue's panic. FCFS and Stop-and-Go
// keep no per-session state and accept any packet, so they
// intentionally do not implement the interface.
func (k *keyed[S]) HasSession(id int) bool { return k.sessions.Get(id) != nil }

// PurgeSession implements network.SessionPurger.
func (k *keyed[S]) PurgeSession(id int, drop func(*packet.Packet)) {
	k.ready.Purge(id, drop)
	k.sessions.Delete(id)
}

// noHold is the OnTransmit of a discipline that carries no slack to the
// next node.
type noHold struct{}

// OnTransmit implements network.Discipline.
func (noHold) OnTransmit(p *packet.Packet, finish float64) { p.Hold = 0 }

// missCounter counts deadline misses — transmissions finishing after
// the packet's due date — at the port's Sched* arena slots, when
// Network.EnableMetrics has attached them.
type missCounter struct {
	ma *metrics.Arena
	mb metrics.Handle
}

// SetMetrics attaches the scheduler's telemetry counters.
func (m *missCounter) SetMetrics(a *metrics.Arena, base metrics.Handle) { m.ma, m.mb = a, base }

func (m *missCounter) countMiss(p *packet.Packet, finish float64) {
	if m.ma != nil && finish > p.Deadline+1e-9 {
		m.ma.Inc(m.mb + metrics.SchedDeadlineMisses)
	}
}
