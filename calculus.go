package lit

import "leaveintime/internal/calculus"

// Deterministic network calculus (Cruz, refs [2, 3] of the paper):
// arrival curves and worst-case FCFS bounds, the methodology Section 4
// contrasts with Leave-in-Time's per-session isolation. The FCFS bounds
// depend on the burstiness of *all* flows sharing each server; the
// Leave-in-Time bounds (Route) depend on the session alone.
//
// A Curve is a concatenation of linear segments plus a final unbounded
// one; token buckets — Cruz's (sigma, rho) burstiness constraint is
// TokenBucketCurve(rho, sigma) — rate-latency service curves, peak-rate
// caps and their min-plus combinations are all curves.
type (
	// FCFSServer computes Cruz delay/backlog bounds for an FCFS
	// multiplexer.
	FCFSServer = calculus.FCFSServer
	// TandemHop is one FCFS hop of a tandem: the server, its
	// cross-traffic arrival curve and the propagation delay.
	TandemHop = calculus.TandemHop
	// Curve is a nonnegative, nondecreasing piecewise-linear function
	// of time (zero value: the zero function).
	Curve = calculus.Curve
	// CurveWs is reusable workspace making repeated curve operations
	// allocation-free (see the calculus package's Ws methods).
	CurveWs = calculus.Ws
)

// ErrUnstable is wrapped by the error BusyPeriodBound and
// TandemDelayBound return when the aggregate rate reaches capacity.
var ErrUnstable = calculus.ErrUnstable

// TokenBucketCurve is the arrival curve b0 + r*t.
func TokenBucketCurve(r, b0 float64) Curve { return calculus.TokenBucket(r, b0) }

// SumCurves adds curves pointwise (flow aggregation).
func SumCurves(curves ...Curve) Curve { return calculus.SumCurves(curves...) }

// BusyPeriodBound is sup{t : alpha(t) >= C*t}, the longest busy period
// of a rate-C server — a delay bound for any work-conserving
// discipline, not just FCFS. ErrUnstable when the busy period is
// unbounded.
func BusyPeriodBound(alpha Curve, c float64) (float64, error) {
	return calculus.BusyPeriodBound(alpha, c)
}

// TandemDelayBound bounds a tagged flow's end-to-end delay across FCFS
// hops with per-hop cross traffic. ErrUnstable when a hop's aggregate
// rate reaches its capacity.
func TandemDelayBound(flow Curve, hops []TandemHop) (float64, error) {
	return calculus.TandemDelayBound(flow, hops)
}
