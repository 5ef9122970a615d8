package sched

import (
	"fmt"

	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
)

// DelayEDD is the Delay-EDD (earliest-due-date) discipline of Ferrari &
// Verma (JSAC 1990). Each session declares a minimum packet
// interarrival time x_min and receives a per-node delay budget d; a
// packet's deadline is its *expected* arrival time plus d, where the
// expected arrival enforces the declared spacing:
//
//	ExpArr_i = max{t_i, ExpArr_{i-1} + x_min},  Deadline_i = ExpArr_i + d.
//
// Deadlines are therefore decoupled from the reserved rate (unlike
// Leave-in-Time's eq. 11), which is why Delay-EDD needs a separate
// schedulability test at establishment time. A deadline miss
// (missCounter) is a transmission finishing after the packet's due
// date — the local delay budget the schedulability test promised.
type DelayEDD struct {
	keyed[eddState]
	missCounter
}

type eddState struct {
	cfg     network.SessionPort
	expArr  float64
	started bool
}

// NewDelayEDD returns an empty Delay-EDD server.
func NewDelayEDD() *DelayEDD { return &DelayEDD{} }

// AddSession implements network.Discipline. The session's LocalDelay
// and XMin fields of SessionPort configure the deadline computation.
func (d *DelayEDD) AddSession(cfg network.SessionPort) {
	if cfg.LocalDelay <= 0 {
		panic(fmt.Sprintf("sched: Delay-EDD session %d needs positive LocalDelay", cfg.Session))
	}
	d.sessions.Put(cfg.Session, eddState{cfg: cfg})
}

// Enqueue implements network.Discipline.
func (d *DelayEDD) Enqueue(p *packet.Packet, now float64) {
	s := d.sessions.Get(p.Session)
	if s == nil {
		panic(fmt.Sprintf("sched: Delay-EDD packet for unregistered session %d", p.Session))
	}
	exp := now
	if s.started && s.expArr+s.cfg.XMin > exp {
		exp = s.expArr + s.cfg.XMin
	}
	s.expArr = exp
	s.started = true
	p.Eligible = now
	p.Deadline = exp + s.cfg.LocalDelay
	p.Delay = s.cfg.LocalDelay
	d.push(p, p.Deadline)
}

// OnTransmit implements network.Discipline.
func (d *DelayEDD) OnTransmit(p *packet.Packet, finish float64) {
	d.countMiss(p, finish)
	p.Hold = 0
}

// JitterEDD is Verma, Zhang & Ferrari's Jitter-EDD (TriCom 1991):
// Delay-EDD extended with delay regulators. When a packet finishes at a
// node ahead of its deadline, the slack (deadline - actual finish) is
// carried in the packet header, and the next node holds the packet for
// that long before computing its deadline. This reconstructs the fully
// regulated arrival pattern at every hop and bounds delay jitter — the
// mechanism Leave-in-Time's regulators (eq. 9) build on.
//
// The embedded Delay-EDD server is the deadline stage: it supplies the
// session table, the ready queue and the miss counter (and with them
// AddSession, RemoveSession, HasSession and SetMetrics); the regulator
// in front of it is the second stage.
type JitterEDD struct {
	delayEDD
	regulator pq.Heap
}

// delayEDD lets JitterEDD embed the Delay-EDD server without exporting
// it as a field.
type delayEDD = DelayEDD

// NewJitterEDD returns an empty Jitter-EDD server.
func NewJitterEDD() *JitterEDD { return &JitterEDD{} }

// Enqueue implements network.Discipline. p.Hold carries the upstream
// slack; the packet is held until now + Hold.
func (j *JitterEDD) Enqueue(p *packet.Packet, now float64) {
	e := now + p.Hold
	if e > now {
		if j.ma != nil {
			j.ma.Inc(j.mb + metrics.SchedRegulated)
			j.ma.AddFloat(j.mb+metrics.SchedEligibilityWait, p.Hold)
		}
		p.Eligible = e
		j.stamp++
		j.regulator.Push(pq.Entry{P: p, Key: e, Stamp: j.stamp})
		return
	}
	j.delayEDD.Enqueue(p, now)
}

// Dequeue implements network.Discipline.
func (j *JitterEDD) Dequeue(now float64) (*packet.Packet, bool) {
	j.release(now)
	return j.delayEDD.Dequeue(now)
}

// NextEligible implements network.Discipline.
func (j *JitterEDD) NextEligible(now float64) (float64, bool) {
	j.release(now)
	if j.ready.Len() > 0 {
		return now, true
	}
	return j.regulator.PeekMin()
}

func (j *JitterEDD) release(now float64) {
	for {
		e, ok := j.regulator.PopDue(now)
		if !ok {
			return
		}
		// The deadline computation sees the eligibility time, as in the
		// regulated Delay-EDD definition.
		j.delayEDD.Enqueue(e.P, e.Key)
	}
}

// OnTransmit implements network.Discipline: the slack deadline - finish
// becomes the downstream holding time.
func (j *JitterEDD) OnTransmit(p *packet.Packet, finish float64) {
	j.countMiss(p, finish)
	p.Hold = p.Deadline - finish
	if p.Hold < 0 {
		p.Hold = 0
	}
}

// Len implements network.Discipline.
func (j *JitterEDD) Len() int { return j.ready.Len() + j.regulator.Len() }

// PurgeSession implements network.SessionPurger: both the regulator
// and the ready queue are swept.
func (j *JitterEDD) PurgeSession(id int, drop func(*packet.Packet)) {
	j.regulator.Purge(id, drop)
	j.delayEDD.PurgeSession(id, drop)
}
