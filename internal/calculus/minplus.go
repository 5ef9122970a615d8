package calculus

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the min-plus algebra over piecewise-linear
// curves — convolution, the horizontal/vertical
// deviations — and the bounds built from them: the FIFO aggregate
// delay bound, the work-conserving busy-period bound, and the minimal
// per-flow backlog bound at an aggregate FIFO server (Wildberger et
// al.: the per-flow bound is the minimum over a family of leftover
// service curves, each of which is individually sound, so the minimum
// is both sound and as tight as the candidate family allows).
//
// All algorithms are exact for piecewise-linear inputs: results are
// built by evaluating the defining inf/sup at a finite candidate grid
// (breakpoint sums/differences plus branch crossings) that provably
// contains every kink of the result.

// Ws is a reusable workspace for curve operations. The zero value is
// ready to use; after warm-up, operations through a Ws perform no
// allocations — the property the admission fast path and the
// Calculus/convolve benchmark gate rely on.
type Ws struct {
	xs   []float64 // candidate abscissae
	vals []float64 // values at candidates
	agg  Curve     // accumulator for SumInto-style use
	tmp  Curve     // scratch curve (leftover service, sums)
	tmp2 Curve
}

// Convolve returns the min-plus convolution (f ⊗ g)(t) =
// inf_{0<=s<=t} f(s) + g(t-s). It is exact for any pair of
// piecewise-linear curves (concavity or convexity is not required);
// concave curves are closed under it. Allocates: use Ws.Convolve on
// hot paths.
func Convolve(f, g Curve) Curve {
	var w Ws
	var out Curve
	w.Convolve(&out, f, g)
	return out
}

// Convolve computes dst = f ⊗ g using the workspace's scratch
// storage. dst must not alias f or g.
func (w *Ws) Convolve(dst *Curve, f, g Curve) {
	fs, gs := f.view(), g.view()
	// Every kink of f⊗g lies at a sum of one kink of f and one kink
	// of g, or at a crossing of two "branches" (a branch fixes the
	// split point at a kink of one operand and slides the remainder
	// along the other). Collect both candidate families, then
	// evaluate the exact inf at each candidate.
	w.xs = w.xs[:0]
	for _, a := range fs {
		for _, b := range gs {
			w.xs = append(w.xs, a.X+b.X)
		}
	}
	sortDedup(&w.xs)
	// Branch crossings: between two adjacent grid points every branch
	// is linear (a kink inside would be a grid point), so crossings
	// of branch pairs are the only possible extra kinks.
	base := len(w.xs)
	for k := 0; k+1 < base; k++ {
		a, b := w.xs[k], w.xs[k+1]
		w.branchCrossings(a, b, f, g)
	}
	// The tail interval too: the slowest branch can overtake the
	// others well past the last breakpoint sum (only beyond the last
	// crossing does the min-final-slope asymptote hold).
	w.branchCrossings(w.xs[base-1], math.Inf(1), f, g)
	if len(w.xs) > base {
		sortDedup(&w.xs)
	}
	w.vals = w.vals[:0]
	for _, t := range w.xs {
		w.vals = append(w.vals, ConvolveAt(f, g, t))
	}
	buildFromPoints(dst, w.xs, w.vals, minf(f.FinalSlope(), g.FinalSlope()))
}

// branchCrossings appends crossings, inside (a,b), of the convolution
// branches v_k(t) = f(k) + g(t-k) (k a kink of f, k <= a) and
// u_j(t) = g(j) + f(t-j) (j a kink of g).
func (w *Ws) branchCrossings(a, b float64, f, g Curve) {
	fs, gs := f.view(), g.view()
	// Each branch fixes the split at one kink; its (value, slope) on
	// (a,b) is linear. Branch count is |Kf|+|Kg|; curves are small so
	// the quadratic crossing scan is cheap. Slopes are sampled at an
	// interior point, not at a: the float subtraction a-k can land one
	// ulp on the wrong side of a kink of the other operand (grid points
	// are built as k+x, and (k+x)-k need not equal x), which would pick
	// the pre-kink slope and hide a crossing.
	mid := a + 1
	if !math.IsInf(b, 1) {
		mid = a + (b-a)/2
	}
	branch := func(i int) (v, s float64, ok bool) {
		if i < len(fs) {
			k := fs[i].X
			if k > a {
				return 0, 0, false
			}
			return fs[i].Y + g.Eval(a-k), g.SlopeAt(mid - k), true
		}
		j := gs[i-len(fs)].X
		if j > a {
			return 0, 0, false
		}
		return gs[i-len(fs)].Y + f.Eval(a-j), f.SlopeAt(mid - j), true
	}
	total := len(fs) + len(gs)
	for i := 0; i < total; i++ {
		vi, si, oki := branch(i)
		if !oki {
			continue
		}
		for j := 0; j < i; j++ {
			vj, sj, okj := branch(j)
			if !okj {
				continue
			}
			if x := lineCross(a, vi, si, vj, sj); x > a && x < b {
				w.xs = append(w.xs, x)
			}
		}
	}
}

// ConvolveAt returns the exact value of (f ⊗ g)(t): the infimum over
// split points, which for piecewise-linear operands is attained at a
// kink of f or at t minus a kink of g.
func ConvolveAt(f, g Curve, t float64) float64 {
	if t < 0 {
		return 0
	}
	best := math.Inf(1)
	for _, s := range f.view() {
		if s.X > t {
			break
		}
		if v := s.Y + g.Eval(t-s.X); v < best {
			best = v
		}
	}
	for _, s := range g.view() {
		if s.X > t {
			break
		}
		if v := f.Eval(t-s.X) + s.Y; v < best {
			best = v
		}
	}
	return best
}

// VerticalDeviation returns sup_t [alpha(t) - beta(t)] — the backlog
// bound for arrivals alpha served at least beta. The difference of
// two piecewise-linear curves is piecewise-linear with kinks only at
// the operands' breakpoints, so the supremum is exact. Returns
// ErrUnstable when alpha outgrows beta.
func VerticalDeviation(alpha, beta Curve) (float64, error) {
	if sa, sb := alpha.FinalSlope(), beta.FinalSlope(); sa > sb {
		return 0, fmt.Errorf("%w: arrival slope %g exceeds service slope %g", ErrUnstable, sa, sb)
	}
	best := math.Inf(-1)
	for _, s := range alpha.view() {
		if d := s.Y - beta.Eval(s.X); d > best {
			best = d
		}
	}
	for _, s := range beta.view() {
		if d := alpha.Eval(s.X) - s.Y; d > best {
			best = d
		}
	}
	if best < 0 {
		best = 0
	}
	return best, nil
}

// HorizontalDeviation returns h(alpha, beta) = sup_t inf{d >= 0 :
// alpha(t) <= beta(t+d)} — the delay bound for FIFO service. Exact
// over the kinks of t -> betaInv(alpha(t)) - t, which lie at alpha's
// breakpoints and at the points where alpha crosses a breakpoint
// value of beta. Returns ErrUnstable when alpha outgrows beta.
func HorizontalDeviation(alpha, beta Curve) (float64, error) {
	sa, sb := alpha.FinalSlope(), beta.FinalSlope()
	if sa > sb {
		return 0, fmt.Errorf("%w: arrival slope %g exceeds service slope %g", ErrUnstable, sa, sb)
	}
	if sb == 0 {
		// beta is bounded; alpha must be too, and must stay at or
		// below beta's supremum.
		la, lb := alpha.lastSeg(), beta.lastSeg()
		if la.Y > lb.Y {
			return 0, fmt.Errorf("%w: arrivals %g exceed total service %g", ErrUnstable, la.Y, lb.Y)
		}
	}
	best := 0.0
	consider := func(t float64) {
		if t < 0 {
			return
		}
		inv, ok := pseudoInverse(beta, alpha.Eval(t))
		if !ok {
			return
		}
		if d := inv - t; d > best {
			best = d
		}
	}
	for _, s := range alpha.view() {
		consider(s.X)
	}
	// Points where alpha reaches each of beta's breakpoint values.
	for _, bs := range beta.view() {
		y := bs.Y
		av := alpha.view()
		for i, as := range av {
			if y < as.Y {
				if i == 0 {
					consider(0)
				}
				break
			}
			var end float64
			if i+1 < len(av) {
				end = av[i+1].Y
			} else {
				end = math.Inf(1)
			}
			if y <= end || i+1 == len(av) {
				if as.Slope > 0 {
					consider(as.X + (y-as.Y)/as.Slope)
				} else if y == as.Y {
					consider(as.X)
				}
				break
			}
		}
	}
	return best, nil
}

// pseudoInverse returns inf{x >= 0 : c(x) >= y}, or ok=false when c
// never reaches y (only possible when c is bounded).
func pseudoInverse(c Curve, y float64) (float64, bool) {
	v := c.view()
	if y <= v[0].Y {
		return 0, true
	}
	for i, s := range v {
		var end float64
		if i+1 < len(v) {
			end = v[i+1].Y
		} else if s.Slope > 0 {
			return s.X + (y-s.Y)/s.Slope, true
		} else {
			return 0, false
		}
		if y <= end {
			if s.Slope > 0 {
				return s.X + (y-s.Y)/s.Slope, true
			}
			// Flat segment: y == end is first reached at the next
			// breakpoint.
			continue
		}
	}
	return 0, false
}

// BusyPeriodBound returns sup{t : alpha(t) >= C*t}, the length of the
// longest busy period of a work-conserving server of rate C fed by
// alpha — a delay bound valid for ANY work-conserving discipline
// (including deadline-ordered ones where the FIFO horizontal
// deviation does not apply). Returns ErrUnstable when the busy period
// never ends (alpha's asymptote at or above C*t).
func BusyPeriodBound(alpha Curve, C float64) (float64, error) {
	if C <= 0 {
		return 0, fmt.Errorf("calculus: capacity must be positive, got %g", C)
	}
	sa := alpha.FinalSlope()
	la := alpha.lastSeg()
	if sa > C || (sa == C && la.Y-C*la.X >= 0) {
		// Final slope above C, or exactly C with a surplus that
		// never closes: the busy period never ends.
		return 0, fmt.Errorf("%w: rho %g, C %g", ErrUnstable, sa, C)
	}
	best := 0.0
	v := alpha.view()
	for i, s := range v {
		if s.Y-C*s.X >= 0 && s.X > best {
			best = s.X
		}
		// Crossing of alpha with C*t inside this segment.
		if s.Slope == C {
			continue
		}
		x := (s.Y - s.Slope*s.X) / (C - s.Slope)
		var end float64
		if i+1 < len(v) {
			end = v[i+1].X
		} else {
			end = math.Inf(1)
		}
		if x >= s.X && x < end && x > best {
			best = x
		}
	}
	return best, nil
}

// leftoverFIFO builds into dst the FIFO leftover service curve
// beta_theta for a flow sharing a constant-rate server C with cross
// traffic ax:
//
//	beta_theta(t) = [C*t - ax(t-theta)]^+  for t > theta, 0 otherwise.
//
// Every theta >= 0 yields a service curve that the flow is guaranteed
// under FIFO (Le Boudec & Thiran, Prop. 6.2.1), so any member of the
// family gives a sound per-flow bound and the minimum over candidates
// is still sound.
//
// Caution: when C*theta > ax(0) the true beta_theta jumps at theta
// (0 up to and including theta, C*theta - ax(0) just after). The
// emitted curve stores the post-jump value at X = theta, so a plain
// VerticalDeviation against it misses the supremum af(theta) - 0
// attained at the jump; FlowBacklogBound compensates explicitly.
func (w *Ws) leftoverFIFO(dst *Curve, ax Curve, C, theta float64) {
	dst.segs = dst.segs[:0]
	dst.segs = append(dst.segs, Seg{X: 0, Y: 0, Slope: 0})
	xs := ax.view()
	// Walk ax's segments shifted right by theta: the leftover value
	// at t >= theta is C*t - ax(t-theta). The negative prefix is
	// clamped at zero; once positive it stays positive for admitted
	// cross traffic (slopes below C). Adversarial cross curves with
	// interior slopes above C make the tail dip again — left
	// unclamped, which only shrinks beta and keeps the bound sound.
	started := false
	for i, s := range xs {
		x0 := s.X + theta // segment start in server time
		v0 := C*x0 - s.Y
		slope := C - s.Slope
		var x1 float64
		if i+1 < len(xs) {
			x1 = xs[i+1].X + theta
		} else {
			x1 = math.Inf(1)
		}
		if !started {
			if v0 >= 0 {
				started = true
			} else if slope > 0 {
				// Crossing to positive inside this segment?
				if xc := x0 - v0/slope; xc < x1 {
					started = true
					appendSeg(&dst.segs, Seg{X: xc, Y: 0, Slope: slope})
				}
				continue
			} else {
				continue
			}
		}
		appendSeg(&dst.segs, Seg{X: x0, Y: v0, Slope: slope})
	}
}

// FlowBacklogBound returns the minimal per-flow backlog bound for a
// flow with arrival curve af sharing an aggregate FIFO server of rate
// C with cross traffic ax (fluid bound; callers add packetization).
// It is the minimum over three sound bounds:
//
//  1. the aggregate backlog v(af+ax, C*t) — the flow cannot hold more
//     than the whole queue;
//  2. af evaluated at the aggregate FIFO delay bound — FIFO drains
//     every bit within h, so the flow's queue holds at most its own
//     arrivals over a window of h;
//  3. min over theta of v(af, beta_theta) — the leftover-service
//     family, evaluated at the candidate thetas where the clamp
//     boundary of beta_theta aligns with a kink of ax (including the
//     classical theta = sigma_x/C) plus theta = 0 and af's kinks.
//     Since beta_theta vanishes up to and including theta (with a
//     jump there whenever C*theta > ax(0)), each candidate's
//     deviation is floored at af(theta), the supremum over [0, theta]
//     that the jump hides from VerticalDeviation.
//
// Returns ErrUnstable when af+ax outgrows the server (slope strictly
// above C; exact saturation still has a finite backlog bound).
func (w *Ws) FlowBacklogBound(af, ax Curve, C float64) (float64, error) {
	if C <= 0 {
		return 0, fmt.Errorf("calculus: capacity must be positive, got %g", C)
	}
	sa := af.FinalSlope() + ax.FinalSlope()
	if sa > C {
		return 0, fmt.Errorf("%w: rho %g, C %g", ErrUnstable, sa, C)
	}
	w.tmp.setAdd(af, ax)
	best, err := rateVerticalDeviation(w.tmp, C)
	if err != nil {
		return 0, err
	}
	// Bound 2 needs a finite aggregate delay, which needs strict
	// stability.
	if sa < C {
		if h := rateHorizontalDeviation(w.tmp, C); af.Eval(h) < best {
			best = af.Eval(h)
		}
	}
	// Bound 3: the leftover-service family.
	try := func(theta float64) {
		if theta < 0 {
			return
		}
		w.leftoverFIFO(&w.tmp2, ax, C, theta)
		v, err := VerticalDeviation(af, w.tmp2)
		if err != nil {
			return
		}
		// True beta_theta is 0 on [0, theta]; the emitted curve stores
		// the post-jump value C*theta - ax(0) at X = theta whenever
		// that is positive, so VerticalDeviation alone would understate
		// the supremum there (af(theta) - 0). Floor the deviation at
		// af(theta): exact, because af is nondecreasing so
		// sup_{t<=theta} af(t) - beta_theta(t) = af(theta). For
		// continuous candidates (C*theta <= ax(0)) this changes
		// nothing.
		if lim := af.Eval(theta); lim > v {
			v = lim
		}
		if v < best {
			best = v
		}
	}
	try(0)
	for _, s := range ax.view() {
		// theta aligning the clamp exit with this kink of ax:
		// C*(x+theta) = ax(x)  =>  theta = ax(x)/C - x.
		try(s.Y/C - s.X)
	}
	for _, s := range af.view() {
		if s.X > 0 {
			try(s.X)
		}
	}
	return best, nil
}

// rateVerticalDeviation is VerticalDeviation(alpha, C*t), exact and
// allocation-free: the supremum is over alpha's breakpoints.
func rateVerticalDeviation(alpha Curve, C float64) (float64, error) {
	if sa := alpha.FinalSlope(); sa > C {
		return 0, fmt.Errorf("%w: rho %g, C %g", ErrUnstable, sa, C)
	}
	best := 0.0
	for _, s := range alpha.view() {
		if d := s.Y - C*s.X; d > best {
			best = d
		}
	}
	return best, nil
}

// rateHorizontalDeviation is HorizontalDeviation(alpha, C*t) for a
// strictly stable alpha: sup over breakpoints of (alpha(x) - C*x)/C.
// For the one-segment curve {sigma, rho} this is sigma/C computed as
// a single division.
func rateHorizontalDeviation(alpha Curve, C float64) float64 {
	best := 0.0
	for _, s := range alpha.view() {
		if d := (s.Y - C*s.X) / C; d > best {
			best = d
		}
	}
	return best
}

// sortDedup sorts xs ascending and removes duplicates and
// non-finite values in place.
func sortDedup(xs *[]float64) {
	s := *xs
	sort.Float64s(s)
	out := s[:0]
	for _, x := range s {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == x {
			continue
		}
		out = append(out, x)
	}
	*xs = out
}

// buildFromPoints assembles a curve through the exact sample points
// (xs[i], vals[i]) with the given final slope beyond the last sample.
// Interior slopes are the finite differences of the exact values;
// collinear neighbors merge.
func buildFromPoints(dst *Curve, xs, vals []float64, finalSlope float64) {
	dst.segs = dst.segs[:0]
	if len(xs) == 0 {
		return
	}
	for i := 0; i < len(xs); i++ {
		var slope float64
		if i+1 < len(xs) {
			slope = (vals[i+1] - vals[i]) / (xs[i+1] - xs[i])
		} else {
			slope = finalSlope
		}
		if slope < 0 {
			// Guard against last-ulp negative differences on flat
			// stretches.
			slope = 0
		}
		appendSeg(&dst.segs, Seg{X: xs[i], Y: vals[i], Slope: slope})
	}
	if dst.segs[0].X != 0 {
		// Samples always include 0 for convolution, but
		// keep the invariant defensively.
		dst.segs = append([]Seg{{X: 0, Y: dst.segs[0].Y, Slope: 0}}, dst.segs...)
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
