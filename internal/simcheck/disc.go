package simcheck

import (
	"fmt"
	"slices"

	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
	"leaveintime/internal/sched"
)

// maxViolationsPerRun caps what one run reports so a systematically
// broken discipline does not flood the report; the first few instances
// identify the bug.
const maxViolationsPerRun = 8

// checkedDisc wraps a discipline with online invariant checks:
//
//   - deadline ordering (the rows sched.Table marks deadline-ordered):
//     a dequeued packet must carry the minimum deadline among all held
//     packets that are already eligible, within the configured
//     tolerance (exact heap: floating-point crumbs; approximate queue:
//     one bin width, the §4 bound);
//   - work conservation (the rows it marks work-conserving, given the
//     case's jitter control): Dequeue must yield a packet whenever the
//     discipline holds any;
//   - eligible-but-idle (every discipline): Dequeue returning nothing
//     while NextEligible reports an instant already in the past is a
//     wake-up bug that would stall the port.
//
// The decorator forwards SetMetrics so instrumented runs see the real
// scheduler counters.
type checkedDisc struct {
	inner         network.Discipline
	sc            *Case
	capacity      float64
	disc          string
	port          string // set once the run's ports are built
	wc            bool
	deadlineCheck bool
	tol           float64
	out           *[]Violation
	// lMax, frame and ports are what the row's discipline was built and
	// given, a port for each session it holds: the inputs of the row's
	// Bound. ports is never written in place, so a slice taken from it
	// keeps the ports of its moment.
	lMax, frame float64
	ports       []network.SessionPort
	// gps, when set, records the port's packets for the GPS reference
	// (checkGPS).
	gps *gpsLog

	held map[*packet.Packet]heldStamp
}

type heldStamp struct {
	session  int
	seq      int64
	eligible float64
	deadline float64
}

func (c *checkedDisc) violate(check string, session int, detail string) {
	if len(*c.out) >= maxViolationsPerRun {
		return
	}
	if session != 0 {
		session = c.sc.docID(session)
	}
	*c.out = append(*c.out, Violation{
		Check: check, Discipline: c.disc, Session: session, Port: c.port, Detail: detail,
	})
}

// AddSession implements network.Discipline. It gives the EDD
// baselines their per-node budget, the one place it is written: the EDD
// rows' Bound runs their schedulability test over the ports recorded
// here. In the paper's exactness corner (procedure 1, one class, eps = 0)
// it spells d = L/r as a nil D: the bit-exact VirtualClock special case
// (the grant's closure would round L*C/(r*C) differently from L/r).
func (c *checkedDisc) AddSession(cfg network.SessionPort) {
	req := c.sc.Sessions[cfg.Session-1].Request()
	cfg.LocalDelay = req.LMax/req.Rate + float64(len(c.sc.Sessions)+2)*c.sc.LMax/c.capacity
	cfg.XMin = req.LMin / req.Rate
	if c.sc.Check.Special {
		cfg.D = nil
	}
	c.ports = append(c.ports, cfg)
	if c.gps != nil {
		c.gps.weight[cfg.Session] = cfg.Rate
	}
	c.inner.AddSession(cfg)
}

// Enqueue implements network.Discipline.
func (c *checkedDisc) Enqueue(p *packet.Packet, now float64) {
	c.inner.Enqueue(p, now)
	if c.gps != nil {
		c.gps.arrive(p, now)
	}
	if c.deadlineCheck {
		if c.held == nil {
			c.held = make(map[*packet.Packet]heldStamp)
		}
		// LiT stamps Eligible and Deadline during Enqueue; record them
		// now so the dequeue-order check can compare against packets
		// still held later.
		c.held[p] = heldStamp{
			session: p.Session, seq: p.Seq,
			eligible: p.Eligible, deadline: p.Deadline,
		}
	}
}

// Dequeue implements network.Discipline.
func (c *checkedDisc) Dequeue(now float64) (*packet.Packet, bool) {
	p, ok := c.inner.Dequeue(now)
	if !ok {
		if c.inner.Len() > 0 {
			if c.wc {
				c.violate("work-conservation", 0, fmt.Sprintf(
					"Dequeue empty at t=%.9f with %d packets held", now, c.inner.Len()))
			}
			if t, held := c.inner.NextEligible(now); held && t < now-1e-9 {
				c.violate("eligible-idle", 0, fmt.Sprintf(
					"Dequeue empty at t=%.9f but NextEligible=%.9f", now, t))
			}
		}
		return nil, false
	}
	if c.deadlineCheck {
		st, known := c.held[p]
		if !known {
			c.violate("deadline-inversion", p.Session, fmt.Sprintf(
				"dequeued packet seq %d never enqueued here", p.Seq))
			return p, true
		}
		delete(c.held, p)
		// Find the most-overtaken eligible packet deterministically
		// (map order must not leak into the report).
		worst := heldStamp{}
		found := false
		for _, q := range c.held {
			if q.eligible > now-1e-9 {
				continue // not yet eligible: allowed to wait
			}
			if q.deadline < st.deadline-c.tol {
				if !found || less(q, worst) {
					worst, found = q, true
				}
			}
		}
		if found {
			c.violate("deadline-inversion", st.session, fmt.Sprintf(
				"t=%.9f: sent seq %d (F=%.9f) over session %d seq %d (F=%.9f, E=%.9f), tol=%.3g",
				now, st.seq, st.deadline, c.sc.docID(worst.session), worst.seq,
				worst.deadline, worst.eligible, c.tol))
		}
	}
	return p, true
}

func less(a, b heldStamp) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.session != b.session {
		return a.session < b.session
	}
	return a.seq < b.seq
}

// NextEligible implements network.Discipline.
func (c *checkedDisc) NextEligible(now float64) (float64, bool) { return c.inner.NextEligible(now) }

// RemoveSession implements network.SessionRemover when the wrapped
// discipline does (ports type-assert on this decorator).
func (c *checkedDisc) RemoveSession(id int) {
	c.forget(id)
	if r, ok := c.inner.(network.SessionRemover); ok {
		r.RemoveSession(id)
	}
}

// forget drops the session's port, into a new array (see ports).
func (c *checkedDisc) forget(id int) {
	c.ports = slices.DeleteFunc(slices.Clone(c.ports), func(p network.SessionPort) bool { return p.Session == id })
}

// PurgeSession implements network.SessionPurger. Purged packets must
// leave the held map too: the packet structs are pooled, so a stale
// entry would later alias an unrelated reincarnation of the struct and
// fabricate a deadline inversion.
func (c *checkedDisc) PurgeSession(id int, drop func(*packet.Packet)) {
	if sp, ok := c.inner.(network.SessionPurger); ok {
		c.forget(id)
		sp.PurgeSession(id, func(p *packet.Packet) {
			delete(c.held, p)
			drop(p)
		})
		return
	}
	c.RemoveSession(id)
}

// HasSession implements network.SessionChecker: forwarded when the
// wrapped discipline tracks registration, permissive otherwise (ports
// type-assert on this decorator, so it must not claim stricter
// registration semantics than the discipline it wraps).
func (c *checkedDisc) HasSession(id int) bool {
	if h, ok := c.inner.(network.SessionChecker); ok {
		return h.HasSession(id)
	}
	return true
}

// OnTransmit implements network.Discipline.
func (c *checkedDisc) OnTransmit(p *packet.Packet, finish float64) {
	c.inner.OnTransmit(p, finish)
	if c.gps != nil {
		c.gps.leave(p, finish)
	}
}

// Len implements network.Discipline.
func (c *checkedDisc) Len() int { return c.inner.Len() }

// SetMetrics forwards the scheduler counters to the wrapped discipline
// (Network.EnableMetrics type-asserts on the port's discipline, which
// is this decorator).
func (c *checkedDisc) SetMetrics(a *metrics.Arena, base metrics.Handle) {
	if s, ok := c.inner.(interface {
		SetMetrics(*metrics.Arena, metrics.Handle)
	}); ok {
		s.SetMetrics(a, base)
	}
}

// checkedRow is the row with its discipline built under the checking
// decorator, reporting into out and, when gps is set, recording each
// port's packets for the GPS reference. The deadline-order tolerance is
// the row's slack plus floating-point crumbs.
func checkedRow(sc *Case, row sched.Row, out *[]Violation, gps bool) sched.Row {
	checked := row
	checked.New = func(capacity, lMax, frame float64) network.Discipline {
		slack, ordered := row.DeadlineOrdered(capacity, lMax)
		c := &checkedDisc{
			inner:         row.New(capacity, lMax, frame),
			sc:            sc,
			capacity:      capacity,
			disc:          row.Name,
			wc:            row.WorkConserving(sc.hasJitter()),
			deadlineCheck: ordered,
			tol:           slack + 1e-9,
			out:           out,
			lMax:          lMax,
			frame:         frame,
		}
		if gps {
			c.gps = newGPSLog()
		}
		return c
	}
	return checked
}
