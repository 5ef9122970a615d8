package calculus

import (
	"fmt"
	"math"
)

// Curve is a continuous, nondecreasing, piecewise-linear function on
// [0, ∞) — the representation behind both arrival curves (concave,
// e.g. token buckets and their minima with peak-rate caps) and service
// curves (convex, e.g. rate-latency). The one-segment curve
// {Y=sigma, Slope=rho} is Cruz's (sigma, rho) burstiness constraint,
// and on it every operation reduces to the closed form in a single
// float operation (sigma + rho*d, sigma/C, ...): the package's tests
// hold them to those bit for bit.
//
// Representation invariants, maintained by the constructors:
//
//   - segments are stored in strictly increasing X order, X[0] == 0;
//   - adjacent segments have distinct slopes (equal-slope neighbors
//     are merged on construction);
//   - each segment's Y is the value at its X, computed cumulatively
//     from the previous segment, so the curve is continuous on (0, ∞)
//     by construction (a jump is allowed only "at" 0: Eval(0) = Y[0],
//     which is how a token bucket carries its burst);
//   - values and slopes are finite and nonnegative.
//
// The zero value is the identically-zero function.
type Curve struct {
	segs []Seg
}

// Seg is one linear piece: for t in [X, next X) the curve's value is
// Y + Slope*(t-X). The last segment extends to infinity.
type Seg struct {
	X, Y, Slope float64
}

// Piece declares one slope change for NewCurve: the curve has the
// given slope from X on.
type Piece struct {
	X, Slope float64
}

// zeroSegs is the view of the zero-value Curve, so every algorithm can
// treat "no segments" as the constant-zero function without
// allocating.
var zeroSegs = []Seg{{}}

func (c Curve) view() []Seg {
	if len(c.segs) == 0 {
		return zeroSegs
	}
	return c.segs
}

// NewCurve builds the curve with value y0 at 0 and the given slope
// schedule. pieces must start at X = 0 and be strictly increasing in
// X; equal-slope neighbors are merged. Y values are accumulated from
// y0, so the result is continuous by construction — callers never
// supply (and can never get wrong) interior Y values.
func NewCurve(y0 float64, pieces ...Piece) (Curve, error) {
	if y0 < 0 || math.IsNaN(y0) || math.IsInf(y0, 0) {
		return Curve{}, fmt.Errorf("calculus: curve value at 0 must be finite and nonnegative, got %g", y0)
	}
	if len(pieces) == 0 {
		if y0 == 0 {
			return Curve{}, nil
		}
		return Curve{segs: []Seg{{X: 0, Y: y0, Slope: 0}}}, nil
	}
	if pieces[0].X != 0 {
		return Curve{}, fmt.Errorf("calculus: first piece must start at 0, got %g", pieces[0].X)
	}
	segs := make([]Seg, 0, len(pieces))
	y := y0
	for i, p := range pieces {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Slope) || math.IsInf(p.Slope, 0) {
			return Curve{}, fmt.Errorf("calculus: piece %d not finite", i)
		}
		if p.Slope < 0 {
			return Curve{}, fmt.Errorf("calculus: piece %d has negative slope %g", i, p.Slope)
		}
		if i > 0 {
			prev := &segs[len(segs)-1]
			if p.X <= prev.X {
				return Curve{}, fmt.Errorf("calculus: piece %d breakpoint %g not after %g", i, p.X, prev.X)
			}
			y = prev.Y + prev.Slope*(p.X-prev.X)
			if p.Slope == prev.Slope {
				// Equal-slope neighbors merge: the breakpoint is
				// representational noise, not a kink.
				continue
			}
		}
		segs = append(segs, Seg{X: p.X, Y: y, Slope: p.Slope})
	}
	return Curve{segs: segs}, nil
}

// MustCurve is NewCurve for statically-known inputs (tests, tables).
func MustCurve(y0 float64, pieces ...Piece) Curve {
	c, err := NewCurve(y0, pieces...)
	if err != nil {
		panic(err)
	}
	return c
}

// TokenBucket returns the arrival curve of a token bucket (r, b0):
// b0 + r*t, the burstiness constraint (sigma, rho) = (b0, r).
func TokenBucket(r, b0 float64) Curve {
	return Curve{segs: []Seg{{X: 0, Y: b0, Slope: r}}}
}

// RateLatency returns the service curve rate*(t-latency)^+ — what a
// server guaranteeing rate after an initial latency offers. Latency 0
// is the constant-rate server lambda_C.
func RateLatency(rate, latency float64) Curve {
	if latency <= 0 {
		return Curve{segs: []Seg{{X: 0, Y: 0, Slope: rate}}}
	}
	return Curve{segs: []Seg{{X: 0, Y: 0, Slope: 0}, {X: latency, Y: 0, Slope: rate}}}
}

// Eval returns the curve's value at t. Negative t evaluates to 0 (no
// arrivals before time zero), t = 0 to the initial value (the burst).
func (c Curve) Eval(t float64) float64 {
	if t < 0 {
		return 0
	}
	v := c.view()
	i := c.segAt(t)
	s := v[i]
	if t == s.X {
		// Exact breakpoint: return the stored Y bit-for-bit.
		return s.Y
	}
	return s.Y + s.Slope*(t-s.X)
}

// segAt returns the index of the segment active at t >= 0.
func (c Curve) segAt(t float64) int {
	v := c.view()
	// Linear scan from the front: curves are small and the scan is
	// allocation-free (sort.Search would be too, but the branch is
	// rarely worth it below ~32 segments).
	i := 0
	for i+1 < len(v) && v[i+1].X <= t {
		i++
	}
	return i
}

// SlopeAt returns the slope of the segment active at t (the
// right-hand slope at breakpoints).
func (c Curve) SlopeAt(t float64) float64 {
	if t < 0 {
		return 0
	}
	return c.view()[c.segAt(t)].Slope
}

// FinalSlope returns the long-run growth rate (the last segment's
// slope) — the rho of the curve's asymptote.
func (c Curve) FinalSlope() float64 {
	v := c.view()
	return v[len(v)-1].Slope
}

// lastSeg returns the final segment.
func (c Curve) lastSeg() Seg {
	v := c.view()
	return v[len(v)-1]
}

// Delayed returns the curve of the flow after experiencing a delay
// jitter of at most d seconds: t -> Eval(t+d) (Cruz part I; for one
// segment: sigma + rho*d).
func (c Curve) Delayed(d float64) Curve {
	var out Curve
	out.setDelayed(c, d)
	return out
}

func (dst *Curve) setDelayed(c Curve, d float64) {
	if d < 0 {
		panic("calculus: negative delay")
	}
	v := c.view()
	i := c.segAt(d)
	dst.segs = dst.segs[:0]
	s := v[i]
	dst.segs = append(dst.segs, Seg{X: 0, Y: s.Y + s.Slope*(d-s.X), Slope: s.Slope})
	for _, s := range v[i+1:] {
		dst.segs = append(dst.segs, Seg{X: s.X - d, Y: s.Y, Slope: s.Slope})
	}
}

// Add returns the pointwise sum of the two curves — the arrival curve
// of superposed flows (for one segment each: sigmas and rhos add).
func Add(f, g Curve) Curve {
	var out Curve
	out.setAdd(f, g)
	return out
}

// SumCurves returns the pointwise sum of all curves (the zero curve
// for an empty argument list).
func SumCurves(curves ...Curve) Curve {
	var total Curve
	for _, c := range curves {
		total = Add(total, c)
	}
	return total
}

func (dst *Curve) setAdd(f, g Curve) {
	fs, gs := f.view(), g.view()
	dst.segs = dst.segs[:0]
	i, j := 0, 0
	for i < len(fs) || j < len(gs) {
		var x float64
		switch {
		case i >= len(fs):
			x = gs[j].X
		case j >= len(gs):
			x = fs[i].X
		case fs[i].X <= gs[j].X:
			x = fs[i].X
		default:
			x = gs[j].X
		}
		// Advance both cursors past x.
		for i < len(fs) && fs[i].X <= x {
			i++
		}
		for j < len(gs) && gs[j].X <= x {
			j++
		}
		fi, gj := fs[i-1], gs[j-1]
		var y float64
		if x == fi.X && x == gj.X {
			y = fi.Y + gj.Y // exact at shared breakpoints (bit-compat)
		} else {
			y = (fi.Y + fi.Slope*(x-fi.X)) + (gj.Y + gj.Slope*(x-gj.X))
		}
		appendSeg(&dst.segs, Seg{X: x, Y: y, Slope: fi.Slope + gj.Slope})
	}
}

// AddInto computes dst = f + g reusing dst's storage — the
// allocation-free form of Add. dst must not alias f or g.
func AddInto(dst *Curve, f, g Curve) { dst.setAdd(f, g) }

// Min returns the pointwise minimum of the two curves — how an
// arrival curve is refined by an additional constraint (e.g. a token
// bucket capped by an upstream link's peak rate). Crossing points
// inside segments become breakpoints of the result.
func Min(f, g Curve) Curve {
	var out Curve
	out.setMin(f, g)
	return out
}

func (dst *Curve) setMin(f, g Curve) {
	fs, gs := f.view(), g.view()
	dst.segs = dst.segs[:0]
	i, j := 0, 0
	x := 0.0
	for {
		fi, gj := fs[i], gs[j]
		fv := fi.Y + fi.Slope*(x-fi.X)
		gv := gj.Y + gj.Slope*(x-gj.X)
		// Next structural breakpoint after x (or +inf).
		next := math.Inf(1)
		if i+1 < len(fs) {
			next = fs[i+1].X
		}
		if j+1 < len(gs) && gs[j+1].X < next {
			next = gs[j+1].X
		}
		// Crossing of the two active lines inside (x, next)?
		if cross := lineCross(x, fv, fi.Slope, gv, gj.Slope); cross > x && cross < next {
			next = cross
		}
		y, s := fv, fi.Slope
		if gv < fv || (gv == fv && gj.Slope < fi.Slope) {
			y, s = gv, gj.Slope
		}
		appendSeg(&dst.segs, Seg{X: x, Y: y, Slope: s})
		if math.IsInf(next, 1) {
			return
		}
		x = next
		for i+1 < len(fs) && fs[i+1].X <= x {
			i++
		}
		for j+1 < len(gs) && gs[j+1].X <= x {
			j++
		}
	}
}

// lineCross returns the abscissa where two lines anchored at x (values
// v1, v2, slopes s1, s2) cross, or NaN when parallel.
func lineCross(x, v1, s1, v2, s2 float64) float64 {
	if s1 == s2 {
		return math.NaN()
	}
	return x + (v2-v1)/(s1-s2)
}

// appendSeg appends a segment, merging it into the previous one when
// collinear (equal slope and continuous value) — the normalization
// invariant.
func appendSeg(segs *[]Seg, s Seg) {
	if n := len(*segs); n > 0 {
		prev := (*segs)[n-1]
		if prev.Slope == s.Slope && prev.Y+prev.Slope*(s.X-prev.X) == s.Y {
			return
		}
		if prev.X == s.X {
			// Same abscissa: the later append wins (used by builders
			// that refine a provisional segment).
			(*segs)[n-1] = s
			return
		}
	}
	*segs = append(*segs, s)
}
