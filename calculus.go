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
	// CurvePiece declares a slope change for NewCurve: from X on, the
	// curve grows at Slope.
	CurvePiece = calculus.Piece
	// CurveWs is reusable workspace making repeated curve operations
	// allocation-free (see the calculus package's Ws methods).
	CurveWs = calculus.Ws
)

// ErrUnstable is returned by the calculus when aggregate rate reaches
// capacity.
var ErrUnstable = calculus.ErrUnstable

// NewCurve builds a curve from its value at 0 and slope changes at
// strictly increasing breakpoints.
func NewCurve(y0 float64, pieces ...CurvePiece) (Curve, error) {
	return calculus.NewCurve(y0, pieces...)
}

// MustCurve is NewCurve, panicking on invalid input.
func MustCurve(y0 float64, pieces ...CurvePiece) Curve {
	return calculus.MustCurve(y0, pieces...)
}

// TokenBucketCurve is the arrival curve b0 + r*t.
func TokenBucketCurve(r, b0 float64) Curve { return calculus.TokenBucket(r, b0) }

// SumCurves adds curves pointwise (flow aggregation).
func SumCurves(curves ...Curve) Curve { return calculus.SumCurves(curves...) }

// Convolve is min-plus convolution: (f ⊗ g)(t) = inf over s of
// f(s) + g(t-s), the composition of service curves.
func Convolve(f, g Curve) Curve { return calculus.Convolve(f, g) }

// Deconvolve is min-plus deconvolution: (f ⊘ g)(t) = sup over u of
// f(t+u) - g(u), the output arrival curve of f through g. ErrUnstable
// when f outgrows g.
func Deconvolve(f, g Curve) (Curve, error) { return calculus.Deconvolve(f, g) }

// VerticalDeviation is the backlog bound sup(alpha - beta); ErrUnstable
// when alpha outgrows beta.
func VerticalDeviation(alpha, beta Curve) (float64, error) {
	return calculus.VerticalDeviation(alpha, beta)
}

// HorizontalDeviation is the delay bound: the maximum horizontal gap
// from alpha to beta.
func HorizontalDeviation(alpha, beta Curve) (float64, error) {
	return calculus.HorizontalDeviation(alpha, beta)
}

// BusyPeriodBound is sup{t : alpha(t) >= C*t}, the longest busy period
// of a rate-C server — a delay bound for any work-conserving
// discipline, not just FCFS.
func BusyPeriodBound(alpha Curve, c float64) (float64, error) {
	return calculus.BusyPeriodBound(alpha, c)
}

// TandemDelayBound bounds a tagged flow's end-to-end delay across FCFS
// hops with per-hop cross traffic.
func TandemDelayBound(flow Curve, hops []TandemHop) (float64, error) {
	return calculus.TandemDelayBound(flow, hops)
}
