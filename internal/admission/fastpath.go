package admission

import "leaveintime/internal/calculus"

// This file is batch admission: a whole batch of sessions destined for
// one delay class is accepted or declined as one. It is the decision
// Admit makes, for more than one member: the rules compare the
// controller's exact running sums plus the batch's exact totals with
// each class's budget, and only an accepted batch is added to the sums.
// So it costs O(batch * classes), and because every side of a rule is
// an exact total read with one rounding, a batch is accepted exactly
// when admitting its members one at a time, in any order, accepts them
// all. On a decline nothing is committed; per-session Admit gives
// partial acceptance and the *RejectError that says which rule and
// class ran out.
//
// A CurveGate can be layered on top: it tracks the aggregate
// token-bucket arrival curve of everything committed at the port and
// also requires the analytic FIFO delay bound of aggregate+batch to
// stay within a budget — the network-calculus side of admission that
// the rule-based procedures do not see. All gate operations are
// allocation-free after warm-up.

// AdmitClass admits the whole batch into class j by the controller's
// one admission decision, with the optional curve gate after the rules.
// On success every session is committed and the assignments are
// returned in batch order — identical, member for member, to what
// sequential Admit calls would have produced. On failure (ok = false)
// the controller and gate are untouched: a rule or the gate refused, a
// declaration is malformed, the batch is empty, or an id is already
// live or appears twice in the batch. Like Admit, it counts one
// ProcRejected per refusal and one ProcAccepted per member admitted.
func (p *ClassController) AdmitClass(gate *CurveGate, batch []SessionSpec, j int, opts Options) ([]Assignment, bool) {
	if p.admit(gate, batch, j, opts, false) != nil {
		return nil, false
	}
	out := make([]Assignment, len(batch))
	for i, spec := range batch {
		out[i] = p.assignment(spec, j, opts)
	}
	return out, true
}

// gateLoad is the token bucket the batch adds to the gate's aggregate
// curve: its reserved rates and its burst. Leave-in-Time sessions
// declare no burst beyond their packet-length envelope, so one maximum
// packet per session is the declared instantaneous arrival. The gate's
// curve arithmetic is floating point throughout, so these are plain
// sums.
func gateLoad(batch []SessionSpec) (rate, burst float64) {
	for _, spec := range batch {
		rate += spec.Rate
		burst += spec.LMax
	}
	return rate, burst
}

// CurveGate is the analytic half of the fast path: it accumulates the
// token-bucket aggregate of all committed sessions (plus an optional
// fixed Base curve, e.g. a peak-rate-capped transit aggregate) and
// admits a batch only while the FIFO delay bound of the combined
// arrival curve stays within Budget.
type CurveGate struct {
	Server calculus.FCFSServer
	// Budget is the aggregate FIFO delay budget in seconds; 0 means
	// stability-only (the bound must merely be finite).
	Budget float64
	// Base is a fixed arrival curve always included in the aggregate
	// (zero value: nothing). It may have any number of segments.
	Base calculus.Curve

	rate, burst float64 // committed token-bucket aggregate
	agg         calculus.Curve
	lastDelay   float64
}

// NewCurveGate returns a gate for the given server with the given
// delay budget (0 = stability-only).
func NewCurveGate(server calculus.FCFSServer, budget float64) *CurveGate {
	return &CurveGate{Server: server, Budget: budget}
}

// Try evaluates the batch (total rate, total burst) against the gate
// without committing: it returns the FIFO delay bound of
// Base + committed + batch and whether it fits the budget.
func (g *CurveGate) Try(rate, burst float64) (float64, bool) {
	calculus.AddInto(&g.agg, g.Base, calculus.TokenBucket(g.rate+rate, g.burst+burst))
	d, err := g.Server.DelayBound(g.agg)
	if err != nil {
		return 0, false
	}
	if g.Budget != 0 && d > g.Budget {
		// Declined: report the bound but leave lastDelay at the last
		// admitted commitment (see Delay).
		return d, false
	}
	g.lastDelay = d
	return d, true
}

// Commit folds a batch previously accepted by Try into the committed
// aggregate.
func (g *CurveGate) Commit(rate, burst float64) {
	g.rate += rate
	g.burst += burst
}

// Release returns a committed batch's reservation (session teardown).
func (g *CurveGate) Release(rate, burst float64) {
	g.rate -= rate
	g.burst -= burst
	if g.rate < 0 {
		g.rate = 0
	}
	if g.burst < 0 {
		g.burst = 0
	}
}

// Delay returns the delay bound computed by the last successful Try —
// the analytic commitment the gate admitted against.
func (g *CurveGate) Delay() float64 { return g.lastDelay }
