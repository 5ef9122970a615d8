package admission

import (
	"leaveintime/internal/calculus"
	"leaveintime/internal/metrics"
)

// This file implements the aggregate admission fast path: a whole
// batch of sessions destined for one delay class is accepted or
// declined by curve arithmetic in O(classes + batch), instead of
// running the per-session rule scans once per member. The rule tests
// of procedures 1 and 2 are additive in the session parameters, so
// testing the batch aggregate against each class budget is equivalent
// to admitting the members one at a time (any order): a batch accept
// is exactly as sound as the sequential path. On a batch decline
// nothing is committed and the caller falls back to per-session
// Admit, which preserves the fine-grained partial-acceptance behavior
// (and the exact rejection rule in the error).
//
// A CurveGate can be layered on top: it tracks the aggregate
// token-bucket arrival curve of everything committed at the port and
// also requires the analytic FIFO delay bound of aggregate+batch to
// stay within a budget — the network-calculus side of admission that
// the rule-based procedures do not see. All gate operations are
// allocation-free after warm-up.

// batchTotals validates every spec in the batch and returns the
// additive quantities the class rules test: total reserved rate and
// total LMax/C sigma contribution.
//
// Float caveat: the batch sum is accumulated here in one pass and
// added to the cumulative totals as a single term, while sequential
// Admit folds each member into the cumulative walk one at a time. The
// two summation orders can differ by a few ulps, so a batch whose
// aggregate lands within an ulp of a rule's tolerance boundary
// (rateTol / 1e-12) may be decided differently by the two paths —
// both decisions are sound; the differential check in simcheck
// recognizes and skips that boundary band.
func batchTotals(batch []SessionSpec, c float64) (rate, sigma float64, ok bool) {
	for _, spec := range batch {
		if spec.validate() != nil {
			return 0, 0, false
		}
		rate += spec.Rate
		sigma += spec.LMax / c
	}
	return rate, sigma, true
}

// AdmitClass admits the whole batch into class j by one aggregate
// rule evaluation (and the optional curve gate). On success every
// session is committed and the assignments are returned in batch
// order — identical, member for member, to what sequential Admit
// calls would have produced. On failure (ok = false) the controller
// and gate are untouched; fall back to per-session Admit for partial
// acceptance or for the precise rejection reason.
func (p *ClassController) AdmitClass(gate *CurveGate, batch []SessionSpec, j int, opts Options) ([]Assignment, bool) {
	if len(batch) == 0 || j < 1 || j > len(p.Classes) || opts.Eps < 0 {
		return nil, false
	}
	rate, sigma, ok := batchTotals(batch, p.C)
	if !ok {
		return nil, false
	}
	if rule, _ := p.fits(j, rate, sigma); rule != 0 {
		return nil, false
	}
	if gate != nil && !gate.tryCommit(rate, batchBurst(batch)) {
		return nil, false
	}
	out := make([]Assignment, len(batch))
	for i, spec := range batch {
		p.members[j-1] = append(p.members[j-1], admitted{spec: spec, eps: opts.Eps})
		out[i] = p.assignment(spec, j, opts)
		if p.ma != nil {
			p.ma.Inc(p.mb + metrics.ProcAccepted)
		}
	}
	return out, true
}

// batchBurst is the token-bucket burst the batch contributes to the
// gate's aggregate curve. Leave-in-Time sessions declare no burst
// beyond their packet-length envelope, so one maximum packet per
// session is the declared instantaneous arrival.
func batchBurst(batch []SessionSpec) float64 {
	var b float64
	for _, spec := range batch {
		b += spec.LMax
	}
	return b
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
	d, err := g.Server.DelayBoundCurve(g.agg)
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

// tryCommit is Try followed by Commit on success.
func (g *CurveGate) tryCommit(rate, burst float64) bool {
	if _, ok := g.Try(rate, burst); !ok {
		return false
	}
	g.rate += rate
	g.burst += burst
	return true
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
