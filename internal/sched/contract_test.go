package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// disciplines is every row of Table, then the class aggregate as the
// conformance battery builds it: LiT's row with the aggregate's
// constructor. The table has no aggregate row, since the aggregate
// needs a case's class map.
func disciplines() []Row {
	agg := Lookup("lit")
	agg.Name = "aggregate"
	agg.New = func(capacity, lMax, _ float64) network.Discipline {
		return core.NewAggregate(core.AggConfig{Capacity: capacity, LMax: lMax, Classes: 2,
			ClassOf: func(id int) int { return id % 2 }})
	}
	return append(Table[:len(Table):len(Table)], agg)
}

// twoStage disciplines hold packets in a regulator in front of the
// transmission queue; a purge sweeps the stages one after the other, so
// its drops are in priority order per stage, not overall.
var twoStage = map[string]bool{"jitteredd": true, "stopandgo": true, "rcsp": true,
	"lit": true, "lit-approx": true, "aggregate": true}

// contractDisc builds the row's discipline for a T1 port of 424-bit
// cells with 10 ms frames.
func contractDisc(r Row) network.Discipline { return r.New(1536e3, 424, 0.01) }

func contractPort(id int) network.SessionPort {
	return network.SessionPort{Session: id, Rate: 32e3, LocalDelay: 1e-3, XMin: 1e-3, DMax: 1e-3, JitterControl: true}
}

// contractRun loads three sessions' packets — varied lengths, the later
// ones carrying upstream slack so regulators fill — serves a few at a
// mid-run instant, optionally purges session 2, and drains the rest
// late enough that every frame, credit and eligibility time has come.
// It returns the service sequence after the purge point and the drops.
func contractRun(t *testing.T, d network.Discipline, purge bool) (served, dropped []string) {
	t.Helper()
	for id := 1; id <= 3; id++ {
		d.AddSession(contractPort(id))
	}
	for i := int64(1); i <= 6; i++ {
		for id := 1; id <= 3; id++ {
			p := pkt(id, i, 424-40*float64((int(i)+id)%3))
			if i > 3 {
				p.Hold = 2e-3
			}
			d.Enqueue(p, float64(i)*1e-4+float64(id)*2e-5)
		}
	}
	for i := 0; i < 4; i++ {
		d.Dequeue(1.5e-3)
	}
	if purge {
		before := d.Len()
		d.(network.SessionPurger).PurgeSession(2, func(p *packet.Packet) {
			dropped = append(dropped, fmt.Sprint(p.Session, "/", p.Seq))
		})
		if d.Len() != before-len(dropped) {
			t.Errorf("Len = %d after purging %d of %d", d.Len(), len(dropped), before)
		}
	}
	for i := 0; d.Len() > 0; i++ {
		p, ok := d.Dequeue(1e3 + float64(i)*100)
		if !ok {
			t.Fatalf("nothing to serve with Len = %d", d.Len())
		}
		served = append(served, fmt.Sprint(p.Session, "/", p.Seq))
	}
	return served, dropped
}

// TestDisciplineContract runs the session-lifecycle contract over
// every discipline: (a) a purge is unobservable to the other sessions,
// hands over exactly the purged session's queued packets in priority
// order, and Len accounts for them; (b) a session can be registered,
// removed and registered again; (c) a discipline implements
// SessionChecker exactly when it implements SessionRemover, and one that
// implements neither keeps no per-session state: it takes and serves a
// packet of a session never registered.
func TestDisciplineContract(t *testing.T) {
	for _, d := range disciplines() {
		t.Run(d.Name, func(t *testing.T) {
			clean, _ := contractRun(t, contractDisc(d), false)
			disc := contractDisc(d)
			served, dropped := contractRun(t, disc, true)

			var others, purged []string
			for _, s := range clean {
				if s[0] == '2' {
					purged = append(purged, s)
				} else {
					others = append(others, s)
				}
			}
			if fmt.Sprint(served) != fmt.Sprint(others) {
				t.Errorf("survivors served %v, want the un-purged run's %v", served, others)
			}
			if len(purged) == 0 || len(dropped) != len(purged) {
				t.Fatalf("dropped %v, want the %d packets %v", dropped, len(purged), purged)
			}
			if twoStage[d.Name] {
				want := map[string]bool{}
				for _, s := range purged {
					want[s] = true
				}
				for _, s := range dropped {
					if !want[s] {
						t.Errorf("dropped %v, want the packets %v", dropped, purged)
					}
					delete(want, s)
				}
			} else if fmt.Sprint(dropped) != fmt.Sprint(purged) {
				t.Errorf("dropped %v, want service order %v", dropped, purged)
			}

			checker, checks := disc.(network.SessionChecker)
			remover, removes := disc.(network.SessionRemover)
			if checks != removes {
				t.Fatalf("SessionChecker %v but SessionRemover %v", checks, removes)
			}
			if !checks {
				disc.Enqueue(pkt(7, 1, 424), 5e2)
				if p, ok := disc.Dequeue(6e2); !ok || p.Session != 7 {
					t.Errorf("no SessionChecker, yet a packet of an unregistered session is not served: %v %v", p, ok)
				}
			} else {
				if checker.HasSession(2) || !checker.HasSession(1) {
					t.Error("HasSession wrong after purging session 2")
				}
				remover.RemoveSession(1)
				if checker.HasSession(1) {
					t.Error("HasSession(1) after RemoveSession(1)")
				}
			}
			// Purged and removed IDs are re-admittable and serviceable.
			for id := 1; id <= 2; id++ {
				disc.AddSession(contractPort(id))
				if checks && !checker.HasSession(id) {
					t.Errorf("HasSession(%d) false after re-admission", id)
				}
				disc.Enqueue(pkt(id, 9, 424), 2e3)
				if p, ok := disc.Dequeue(4e3); !ok || p.Session != id {
					t.Errorf("re-admitted session %d unserviceable: %v %v", id, p, ok)
				}
			}
		})
	}
}

// TestDeclaredProperties holds every row to the properties it declares,
// with and without jitter control: a work-conserving row never comes
// back empty from Dequeue while it holds a packet, a row that is not
// does idle in this run, and a deadline-ordered row serves no packet
// over an eligible one whose deadline is earlier by more than its slack.
func TestDeclaredProperties(t *testing.T) {
	for _, d := range disciplines() {
		t.Run(d.Name, func(t *testing.T) {
			for _, jitter := range []bool{false, true} {
				idled, inverted := propertyRun(t, d, jitter)
				switch wc := d.WorkConserving(jitter); {
				case wc && idled != "":
					t.Errorf("jitter control %v: declared work-conserving, but %s", jitter, idled)
				case !wc && idled == "":
					t.Errorf("jitter control %v: never idled with a packet held; the row should say it conserves work", jitter)
				}
				if inverted != "" {
					t.Errorf("jitter control %v: declared deadline-ordered, but %s", jitter, inverted)
				}
			}
		})
	}
}

// propertyRun serves three sessions' packets through the row's
// discipline as a port of capacity C would: whenever the link is free
// and the discipline holds a packet it asks for one, and when it gets
// none it waits for the next arrival or eligibility instant. The
// sessions differ in rate, local delay and spacing, so deadline order is
// not arrival order; from the fourth packet on each carries 2 ms of
// upstream slack. It reports the first Dequeue that came back empty with
// packets held and, for a deadline-ordered row, the first packet served
// over an eligible one with an earlier deadline beyond the row's slack.
func propertyRun(t *testing.T, r Row, jitter bool) (idled, inverted string) {
	t.Helper()
	const c, lMax = 1536e3, 424.0
	d := r.New(c, lMax, 0.01)
	slack, ordered := r.DeadlineOrdered(c, lMax)
	for id := 1; id <= 3; id++ {
		f := float64(int(1) << (2 * (id - 1))) // 1, 4, 16
		d.AddSession(network.SessionPort{Session: id, Rate: 32e3 * f, JitterControl: jitter,
			LocalDelay: 16e-3 / f, XMin: 1e-3 / f, DMax: lMax / (32e3 * f)})
	}
	type arrival struct {
		p  *packet.Packet
		at float64
	}
	var arrivals []arrival
	for i := int64(1); i <= 8; i++ {
		for id := 1; id <= 3; id++ {
			p := pkt(id, i, lMax-40*float64((int(i)+id)%3))
			if i > 3 {
				p.Hold = 2e-3
			}
			arrivals = append(arrivals, arrival{p, float64(i)*1e-4 + float64(4-id)*2e-5})
		}
	}
	var held []*packet.Packet
	now := 0.0
	for steps := 0; len(arrivals) > 0 || d.Len() > 0; steps++ {
		if steps > 1000 {
			t.Fatalf("no progress at t=%.6f with %d held", now, d.Len())
		}
		for len(arrivals) > 0 && arrivals[0].at <= now {
			d.Enqueue(arrivals[0].p, arrivals[0].at)
			held, arrivals = append(held, arrivals[0].p), arrivals[1:]
		}
		if d.Len() > 0 {
			if p, ok := d.Dequeue(now); ok {
				held = slices.DeleteFunc(held, func(q *packet.Packet) bool { return q == p })
				for _, q := range held {
					if ordered && inverted == "" && q.Eligible <= now-1e-9 && q.Deadline < p.Deadline-slack-1e-9 {
						inverted = fmt.Sprintf("at t=%.6f it served %d/%d (F=%.6f) over %d/%d (F=%.6f)",
							now, p.Session, p.Seq, p.Deadline, q.Session, q.Seq, q.Deadline)
					}
				}
				now += p.Length / c
				d.OnTransmit(p, now)
				continue
			}
			if idled == "" {
				idled = fmt.Sprintf("Dequeue came back empty at t=%.6f with %d held", now, d.Len())
			}
		}
		wake := math.Inf(1)
		if len(arrivals) > 0 {
			wake = arrivals[0].at
		}
		if e, ok := d.NextEligible(now); ok && e < wake {
			wake = e
		}
		if wake <= now {
			t.Fatalf("stalled at t=%.6f: nothing served, next instant %.6f", now, wake)
		}
		now = wake
	}
	return idled, inverted
}
