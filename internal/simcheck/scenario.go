// Package simcheck is the randomized scenario conformance harness: it
// generates random-but-valid scenario documents from a seed (topology,
// admitted session set, traffic mix), runs the same arrival sequence
// through every discipline in the repository (sched.Table), and checks
// an invariant battery against the paper's analytic machinery —
// per-session delay/jitter/buffer bounds, packet conservation,
// packet-pool balance, reserved capacity returned whole, deadline
// ordering, work conservation, the LiT ≡ VirtualClock special case, the
// approximate-queue approximation bound, and metrics/trace/probe
// agreement; then the scenario again with one regulator per class
// against the degraded aggregate bounds, and under FCFS against
// curve-propagated calculus bounds; then all of it once more under a
// generated fault plan. On violation it shrinks the scenario to a
// minimal failing form and writes a replayable JSON repro. See
// cmd/litcheck for the CLI driver.
//
// What it generates, shrinks, replays and checks is a config.Scenario,
// the document litrun and litserve run, and it runs the document on
// their runner, config.Run, with its checks layered on: each discipline
// under the checking decorator, the trace counts, the probes and the
// watchdog. What the network is checked against is the paper — the
// analytic bounds, the other disciplines, and the reference model of
// the schedule in the package's tests.
package simcheck

import (
	"leaveintime/internal/admission"
	"leaveintime/internal/config"
)

// Check is the harness's own share of a repro file: the "check" object
// beside the document, which config.Parse ignores.
type Check struct {
	// Kind records the generator's topology shape (tandem, cross or
	// tree) for the report line.
	Kind string `json:"kind,omitempty"`

	// Special marks the paper's exactness corner: procedure 1, one
	// class, eps = 0, no jitter control — where LiT must be
	// bit-identical to VirtualClock. The generator sets it; the battery
	// runs the differential check only then.
	Special bool `json:"special,omitempty"`

	// BoundScale scales the *checked* analytic bounds; 0 and 1 both
	// mean "check the paper's bounds as-is". Values below 1 tighten the
	// checks past what the theorems promise. It exists only as the
	// test hook behind the injection/shrinking tests and the litcheck
	// -bound-scale flag.
	BoundScale float64 `json:"bound_scale,omitempty"`
}

// Case is what the harness checks and what a repro file holds: a
// scenario document and the check object beside it. Sessions of a
// generated document were admitted when it was generated; because
// removing an admitted session never invalidates the remaining ones
// (the procedures' tests are monotone in the session set), any subset
// is again a valid scenario — the property the shrinker relies on. A
// fault plan in the document is injected into every run and narrows the
// bound checks to the sessions it leaves alone (see CheckScenario).
type Case struct {
	*config.Scenario
	Check Check `json:"check"`
}

// edited returns the case over a copy of the document with edit applied;
// the slices the edit does not replace stay shared.
func (c Case) edited(edit func(*config.Scenario)) Case {
	doc := *c.Scenario
	edit(&doc)
	c.Scenario = &doc
	return c
}

// boundScale returns the effective bound scaling factor.
func (c *Case) boundScale() float64 {
	if c.Check.BoundScale > 0 {
		return c.Check.BoundScale
	}
	return 1
}

// hasJitter reports whether any session uses jitter control. LiT is
// work-conserving exactly when no regulator is in play.
func (c *Case) hasJitter() bool {
	for i := range c.Sessions {
		if c.Sessions[i].JitterControl {
			return true
		}
	}
	return false
}

// allDeclareB0 reports whether every session declares its token bucket:
// the batteries that sum arrival curves per link (calculus, aggregate
// classes) bound nothing once one member's burst is unknown.
func (c *Case) allDeclareB0() bool {
	for i := range c.Sessions {
		if c.Sessions[i].B0 == 0 {
			return false
		}
	}
	return true
}

// docID is the document id of the run's network session id: the runner
// connects the document's sessions in order, numbering them from 1.
func (c *Case) docID(netID int) int { return c.Sessions[netID-1].ID }

// server returns the named server; Validate has checked every name a
// route or a fault plan uses.
func (c *Case) server(name string) *config.Server {
	for i := range c.Servers {
		if c.Servers[i].Name == name {
			return &c.Servers[i]
		}
	}
	panic("simcheck: unknown server " + name)
}

// hops returns the servers of the session's route.
func (c *Case) hops(def *config.Session) []*config.Server {
	hops := make([]*config.Server, len(def.Route))
	for i, name := range def.Route {
		hops[i] = c.server(name)
	}
	return hops
}

// admissionRequest is the session's declaration as admission.Establish
// and the signaling exchange take it.
func admissionRequest(def *config.Session) admission.Request {
	req := def.Request()
	return admission.Request{
		Spec:          admission.SessionSpec{ID: def.ID, Rate: req.Rate, LMax: req.LMax, LMin: req.LMin},
		Class:         req.Class,
		Opts:          admission.Options{Eps: req.Eps, PerPacket: !req.FixedD, D: req.D},
		JitterControl: req.JitterControl,
		B0:            req.B0,
	}
}
