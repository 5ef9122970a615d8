package sched

import (
	"fmt"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/network"
	"leaveintime/internal/packet"
)

// disciplines is every discipline of the repository: the 12 baselines
// of this package and the three Leave-in-Time servers of core.
var disciplines = []struct {
	name string
	mk   func() network.Discipline
	// stateless disciplines keep no per-session state and accept any
	// packet: no SessionChecker, no SessionRemover.
	stateless bool
	// twoStage disciplines hold packets in a regulator in front of the
	// transmission queue; a purge sweeps the stages one after the other,
	// so its drops are in priority order per stage, not overall.
	twoStage bool
}{
	{name: "fcfs", mk: func() network.Discipline { return NewFCFS() }, stateless: true},
	{name: "virtualclock", mk: func() network.Discipline { return NewVirtualClock() }},
	{name: "wfq", mk: func() network.Discipline { return NewWFQ(1536e3) }},
	{name: "wf2q", mk: func() network.Discipline { return NewWF2Q(1536e3) }},
	{name: "scfq", mk: func() network.Discipline { return NewSCFQ() }},
	{name: "delayedd", mk: func() network.Discipline { return NewDelayEDD() }},
	{name: "jitteredd", mk: func() network.Discipline { return NewJitterEDD() }, twoStage: true},
	{name: "stopandgo", mk: func() network.Discipline { return NewStopAndGo(0.01) }, stateless: true, twoStage: true},
	{name: "hrr", mk: func() network.Discipline { return NewHRR(424, 0.01) }},
	{name: "rcsp", mk: func() network.Discipline { return NewRCSP(2) }, twoStage: true},
	{name: "lstf", mk: func() network.Discipline { return NewLSTF() }},
	{name: "srpt", mk: func() network.Discipline { return NewSRPT() }},
	{name: "lit", mk: func() network.Discipline {
		return core.New(core.Config{Capacity: 1536e3, LMax: 424})
	}, twoStage: true},
	{name: "lit-approx", mk: func() network.Discipline {
		return core.New(core.Config{Capacity: 1536e3, LMax: 424, Approximate: true})
	}, twoStage: true},
	{name: "aggregate", mk: func() network.Discipline {
		return core.NewAggregate(core.AggConfig{Capacity: 1536e3, LMax: 424, Classes: 2,
			ClassOf: func(id int) int { return id % 2 }})
	}, twoStage: true},
}

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
// removed and registered again; (c) only disciplines with per-session
// state implement SessionChecker.
func TestDisciplineContract(t *testing.T) {
	for _, d := range disciplines {
		t.Run(d.name, func(t *testing.T) {
			clean, _ := contractRun(t, d.mk(), false)
			disc := d.mk()
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
			if d.twoStage {
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
			if checks == d.stateless || removes == d.stateless {
				t.Fatalf("SessionChecker %v, SessionRemover %v for stateless = %v", checks, removes, d.stateless)
			}
			if checks {
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
