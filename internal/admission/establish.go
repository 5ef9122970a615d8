package admission

import "fmt"

// This file is the paper's connection establishment as one procedure:
// walk the session's route, run each node's admission rules, collect
// the d_{i,s} grants, and read the service commitments (eq. 12,
// ineq. 17, the Section 3.3 buffer bounds) off them. Every entry point
// that establishes a connection — the System builder, the declarative
// runner, the conformance harness — lowers onto Establish, or onto its
// admission half Reserve when it already holds the call's commitments.

// Link is one server of a route as establishment sees it: the
// controller guarding it and the link constants that enter eq. 13.
type Link struct {
	// Name identifies the node in a refusal.
	Name string
	Ctrl Controller
	// C is the outgoing link's capacity (bits/s), Gamma its propagation
	// delay (seconds).
	C, Gamma float64
}

// Request is what a session declares end to end.
type Request struct {
	Spec  SessionSpec
	Class int
	Opts  Options
	// JitterControl selects which jitter and buffer bounds apply.
	JitterControl bool
	// B0 optionally declares that the source conforms to a token bucket
	// (Spec.Rate, B0 bits), which gives D_ref_max = B0/Rate (eq. 14)
	// and with it the delay, jitter and buffer bounds.
	B0 float64
}

// Bounds carries the service commitments computed for an established
// connection: the paper's eqs. 12-17, evaluated from the session's
// declaration alone (the isolation property — no other session enters
// these numbers). Calls of one declaration over one route are owed the
// same Bounds, so one may be shared among them (system.Connect does):
// it is read-only.
type Bounds struct {
	// Route is the bound calculator itself, for custom queries.
	Route Route
	// Beta is the eq. 13 constant.
	Beta float64
	// Alpha is the final-node alpha term.
	Alpha float64
	// DRefMax is the reference-server delay bound used: B0/Rate when a
	// token bucket was declared. Otherwise it and the bounds below are
	// zero, and the session's delay is bounded only relative to its own
	// behavior in the reference server (query Route).
	DRefMax float64
	// DelayBound is eq. 12's end-to-end delay bound.
	DelayBound float64
	// JitterBound is ineq. 17 (jitter control) or its no-control
	// counterpart, matching the session's mode.
	JitterBound float64
	// BufferBoundBits[n] bounds the session's buffer use at route node
	// n (0-based), in bits.
	BufferBoundBits []float64
	// Assignments are the per-node d_{i,s} grants.
	Assignments []Assignment
}

// Establish runs the admission test at every server of the path, in
// order. If all pass, the session is reserved at each of them and its
// service commitments are returned; on a refusal the reservations made
// so far are released, so no state is left behind at any server. path
// is not retained. lMaxNet is the network-wide L_MAX.
func Establish(path []Link, lMaxNet float64, req Request) (*Bounds, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("admission: empty route")
	}
	assigns := make([]Assignment, len(path))
	if err := Reserve(path, &req, assigns); err != nil {
		return nil, err
	}
	hops := make([]Hop, len(path))
	for i, l := range path {
		hops[i] = Hop{C: l.C, Gamma: l.Gamma, DMax: assigns[i].DMax}
	}
	route := Route{Hops: hops, LMax: lMaxNet, Alpha: assigns[len(assigns)-1].Alpha(req.Spec)}
	b := &Bounds{
		Route:       route,
		Beta:        route.Beta(),
		Alpha:       route.Alpha,
		Assignments: assigns,
	}
	if req.B0 > 0 {
		b.DRefMax = req.B0 / req.Spec.Rate
		b.DelayBound, b.JitterBound, b.BufferBoundBits = route.Commitments(req.Spec.Rate, req.B0, req.Spec.LMin, req.JitterControl)
	}
	return b, nil
}

// Reserve is Establish's admission half: it runs the admission test at
// every server of the path, in order, and writes each grant to assigns.
// A nil assigns is a caller that holds the grants already: the
// declaration is then validated once for the path, and a class
// controller books the session without building its d. A declaration
// that fails validation is refused at the first server, as Admit there
// refuses it. On a refusal the reservations made so far are released,
// so no state is left behind at any server.
func Reserve(path []Link, req *Request, assigns []Assignment) error {
	valid := assigns == nil && req.Spec.validate() == nil
	for i, l := range path {
		var err error
		if p, ok := l.Ctrl.(*ClassController); ok && valid {
			err = p.admit(nil, []SessionSpec{req.Spec}, req.Class, req.Opts, true)
		} else {
			var a Assignment
			if a, err = l.Ctrl.Admit(req.Spec, req.Class, req.Opts); err == nil && assigns != nil {
				assigns[i] = a
			}
		}
		if err != nil {
			for _, back := range path[:i] {
				back.Ctrl.Remove(req.Spec.ID)
			}
			return fmt.Errorf("admission failed at %s: %w", l.Name, err)
		}
	}
	return nil
}
