package core

import (
	"math"

	"leaveintime/internal/metrics"
	"leaveintime/internal/packet"
	"leaveintime/internal/pq"
)

// queues is the queueing half of a Leave-in-Time server — the delay
// regulator plus the sorted transmission queue — shared by LiT (one
// reference server per session) and Aggregate (one per class). The
// embedding type stamps each packet with its eligibility time and
// deadline and hands it to place; everything after that is here.
type queues struct {
	// txMax is L_MAX/C, one maximum-length transmission time: the
	// margin of the service guarantee F + L_MAX/C (eq. 9, Theorem 1).
	txMax float64
	// regulator holds not-yet-eligible packets of jitter-controlled
	// sessions, keyed by eligibility time.
	regulator pq.Heap
	// ready holds eligible packets keyed by transmission deadline.
	ready pq.Heap
	// binned selects the approximate sorted queue of the paper's
	// Section 4: deadlines are binned to days of L_MAX/C and a day is
	// served first-pushed-first, so the service order deviates from
	// exact deadline order by less than one maximum-length transmission
	// time. It changes only the key pushReady files a packet under.
	binned bool
	stamp  uint64

	// ma/mb, when attached, receive scheduler counters (regulator holds,
	// deadline misses) at the port's Sched* slots; wired by
	// Network.EnableMetrics.
	ma *metrics.Arena
	mb metrics.Handle
}

func newQueues(capacity, lMax float64) queues {
	return queues{txMax: lMax / capacity}
}

// SetMetrics attaches the scheduler's telemetry counters — regulator
// holds with their accumulated eligibility wait, and deadline misses
// (transmissions finishing after F + L_MAX/C, the service guarantee
// behind eq. 9's nonnegative holding time, Theorem 1) — as arena slots
// at the port's counter block.
func (q *queues) SetMetrics(a *metrics.Arena, base metrics.Handle) { q.ma, q.mb = a, base }

// place queues a stamped packet: in the delay regulator until its
// eligibility time e when that lies ahead, otherwise straight in the
// transmission queue under its deadline.
func (q *queues) place(p *packet.Packet, e, now float64) {
	q.stamp++
	en := pq.Entry{P: p, Stamp: q.stamp}
	if e > now {
		if q.ma != nil {
			q.ma.Inc(q.mb + metrics.SchedRegulated)
			q.ma.AddFloat(q.mb+metrics.SchedEligibilityWait, e-now)
		}
		en.Key = e
		q.regulator.Push(en)
	} else {
		q.pushReady(en)
	}
}

// pushReady files an eligible packet in the transmission queue: under
// (deadline, arrival stamp), or when binned under (day of the deadline,
// push order into this queue) — a packet leaving the regulator queues
// behind those already in its day.
func (q *queues) pushReady(en pq.Entry) {
	en.Key = en.P.Deadline
	if q.binned {
		day := math.Floor(en.Key / q.txMax)
		// A NaN or astronomically large deadline is a bug upstream, and
		// binning it silently corrupts the service order. The in-range
		// comparison is also false for NaN, so one guard catches both.
		if !(day >= -(1<<62) && day <= 1<<62) {
			panic("core: deadline is NaN or its L_MAX/C bin overflows int64")
		}
		q.stamp++
		en.Key, en.Stamp = day, q.stamp
	}
	q.ready.Push(en)
}

// release migrates regulated packets whose eligibility time has been
// reached into the transmission queue.
func (q *queues) release(now float64) {
	for {
		en, ok := q.regulator.PopDue(now)
		if !ok {
			return
		}
		q.pushReady(en)
	}
}

// Dequeue implements network.Discipline: it releases regulated packets
// whose eligibility times have passed and pops the eligible packet with
// the smallest transmission deadline.
func (q *queues) Dequeue(now float64) (*packet.Packet, bool) {
	q.release(now)
	en, ok := q.ready.PopMin()
	return en.P, ok
}

// NextEligible implements network.Discipline.
func (q *queues) NextEligible(now float64) (float64, bool) {
	q.release(now)
	if q.ready.Len() > 0 {
		return now, true
	}
	return q.regulator.PeekMin()
}

// Len implements network.Discipline.
func (q *queues) Len() int { return q.ready.Len() + q.regulator.Len() }

// purge evicts the session's packets, regulated and eligible, handing
// each to drop. Surviving entries keep their keys and stamps, so the
// service order of every other session is untouched.
func (q *queues) purge(id int, drop func(*packet.Packet)) {
	q.regulator.Purge(id, drop)
	q.ready.Purge(id, drop)
}

// slack counts a deadline miss when the transmission finished after
// the service guarantee, and returns F + L_MAX/C - Fhat: the leading
// terms of eq. 9's holding time.
func (q *queues) slack(p *packet.Packet, finish float64) float64 {
	guarantee := p.Deadline + q.txMax
	if q.ma != nil && finish > guarantee+deadlineSlack {
		q.ma.Inc(q.mb + metrics.SchedDeadlineMisses)
	}
	return guarantee - finish
}

// deadlineSlack absorbs floating-point crumbs in the deadline-miss
// comparison so a transmission finishing exactly at the guarantee is
// not miscounted.
const deadlineSlack = 1e-9
