package calculus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests for the min-plus algebra. Generators draw slopes and
// breakpoints from a dyadic grid (multiples of 1/16) so intermediate
// arithmetic stays exactly representable and the closure/commutativity
// properties can be checked without drowning in float noise; the
// associativity and residual checks, which pass through
// division-derived slopes, use a small relative tolerance.

const propEps = 1e-9

func dyadic(r *rand.Rand, lo, hi int) float64 {
	return float64(lo+r.Intn(hi-lo+1)) / 16.0
}

// randConcave draws a concave curve: a burst followed by 1–4 segments
// of strictly decreasing positive-or-zero slopes.
func randConcave(r *rand.Rand) Curve {
	burst := dyadic(r, 0, 64)
	n := 1 + r.Intn(4)
	pieces := make([]Piece, 0, n)
	x := 0.0
	slope := dyadic(r, 16, 128) // start steep
	for i := 0; i < n; i++ {
		pieces = append(pieces, Piece{X: x, Slope: slope})
		x += dyadic(r, 4, 32)
		// Strictly decrease; bottom out at a small positive rate so
		// stability setups stay easy.
		next := slope - dyadic(r, 1, 16)
		if next < 1.0/16 {
			next = 1.0 / 16
		}
		if next >= slope {
			break
		}
		slope = next
	}
	return MustCurve(burst, pieces...)
}

// randConvex draws a convex service curve: latency then 1–3 segments
// of increasing slopes.
func randConvex(r *rand.Rand) Curve {
	lat := dyadic(r, 0, 32)
	n := 1 + r.Intn(3)
	pieces := []Piece{}
	if lat > 0 {
		pieces = append(pieces, Piece{X: 0, Slope: 0})
	}
	x := lat
	slope := dyadic(r, 8, 64)
	for i := 0; i < n; i++ {
		if x == 0 && len(pieces) == 0 {
			pieces = append(pieces, Piece{X: 0, Slope: slope})
		} else {
			pieces = append(pieces, Piece{X: x, Slope: slope})
		}
		x += dyadic(r, 4, 32)
		slope += dyadic(r, 1, 32)
	}
	return MustCurve(0, pieces...)
}

// samplePoints returns the union of both curves' breakpoints plus a
// few interior and tail points — enough to distinguish piecewise-
// linear functions that differ anywhere.
func samplePoints(curves ...Curve) []float64 {
	var xs []float64
	maxX := 0.0
	for _, c := range curves {
		for _, s := range c.view() {
			xs = append(xs, s.X)
			if s.X > maxX {
				maxX = s.X
			}
		}
	}
	base := append([]float64{}, xs...)
	for _, x := range base {
		xs = append(xs, x+0.03125, x/2)
	}
	xs = append(xs, maxX+1, maxX*2+5)
	return xs
}

func closeRel(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= propEps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestConvolutionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randConcave(r), randConvex(r)
		ab, ba := Convolve(a, b), Convolve(b, a)
		for _, x := range samplePoints(ab, ba) {
			if !closeRel(ab.Eval(x), ba.Eval(x)) {
				t.Logf("seed %d: (a⊗b)(%g)=%g (b⊗a)(%g)=%g", seed, x, ab.Eval(x), x, ba.Eval(x))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConvolutionAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randConcave(r), randConcave(r), randConvex(r)
		left := Convolve(Convolve(a, b), c)
		right := Convolve(a, Convolve(b, c))
		for _, x := range samplePoints(left, right) {
			if !closeRel(left.Eval(x), right.Eval(x)) {
				t.Logf("seed %d: ((a⊗b)⊗c)(%g)=%g (a⊗(b⊗c))(%g)=%g",
					seed, x, left.Eval(x), x, right.Eval(x))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcaveClosedUnderConvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randConcave(r), randConcave(r)
		c := Convolve(a, b)
		// Slopes must be nonincreasing (tiny tolerance: interior
		// slopes come from exact values but divided by widths).
		segs := c.view()
		for i := 1; i < len(segs); i++ {
			if segs[i].Slope > segs[i-1].Slope+propEps {
				t.Logf("seed %d: slopes %g -> %g at seg %d: %+v", seed, segs[i-1].Slope, segs[i].Slope, i, segs)
				return false
			}
		}
		// And the closed form for concave curves must agree:
		// a⊗b = a(0)+b(0) + min(a-a(0), b-b(0)).
		for _, x := range samplePoints(a, b, c) {
			want := a.Eval(0) + b.Eval(0) + math.Min(a.Eval(x)-a.Eval(0), b.Eval(x)-b.Eval(0))
			if x >= 0 && !closeRel(c.Eval(x), want) {
				t.Logf("seed %d: conv(%g)=%g closed form %g", seed, x, c.Eval(x), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOneSegmentBitIdentical pins the degenerate path: every curve
// operation on a one-segment input must land on Cruz's closed form for
// the (sigma, rho) envelope — sigma + rho*d, the sums, sigma/C + LMax/C,
// sigma — bit for bit, not approximately.
func TestOneSegmentBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sigma := r.Float64() * 1e4
		rho := r.Float64() * 1e5
		c := rho*(1+r.Float64()*3) + 1 // C > rho
		lmax := 1 + r.Float64()*1e4
		d := r.Float64() * 0.5

		crv := TokenBucket(rho, sigma)
		srv := FCFSServer{C: c, LMax: lmax}

		// Delayed.
		if s, r, ok := sigmaRho(crv.Delayed(d)); !ok || s != sigma+rho*d || r != rho {
			t.Logf("seed %d: Delayed (%v, %v) != (%v, %v)", seed, s, r, sigma+rho*d, rho)
			return false
		}
		// Add.
		sigma2, rho2 := r.Float64()*1e3, r.Float64()*1e3
		if s, r, ok := sigmaRho(Add(crv, TokenBucket(rho2, sigma2))); !ok || s != sigma+sigma2 || r != rho+rho2 {
			t.Logf("seed %d: Add (%v, %v) != (%v, %v)", seed, s, r, sigma+sigma2, rho+rho2)
			return false
		}
		// Delay bound.
		if w, err := srv.DelayBound(crv); err != nil || w != sigma/c+lmax/c {
			t.Logf("seed %d: DelayBound %v/%v != %v", seed, w, err, sigma/c+lmax/c)
			return false
		}
		// Backlog bound.
		if b, err := rateVerticalDeviation(crv, srv.C); err != nil || b != sigma {
			t.Logf("seed %d: backlog bound %v/%v != %v", seed, b, err, sigma)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTandemBitIdentical walks random feed-forward tandems of
// one-segment curves; the total must equal, as a float, the (sigma,
// rho) recursion written out: hop delay (sigma + sigma_x)/C + LMax/C,
// then sigma grows by rho times it.
func TestTandemBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sigma, rho := 1+r.Float64()*1e4, 1+r.Float64()*1e4
		flow := TokenBucket(rho, sigma)
		hops := make([]TandemHop, 1+r.Intn(5))
		want := 0.0
		// Capacity with room for flow + cross at every hop.
		for i := range hops {
			crossSigma, crossRho := r.Float64()*1e4, r.Float64()*1e4
			srv := FCFSServer{C: (rho + crossRho) * (1.1 + r.Float64()), LMax: 1 + r.Float64()*1e3}
			gamma := r.Float64() * 1e-3
			hops[i] = TandemHop{Server: srv, Cross: TokenBucket(crossRho, crossSigma), Gamma: gamma}
			d := (sigma+crossSigma)/srv.C + srv.LMax/srv.C
			want += d + gamma
			sigma += rho * d
		}
		got, err := TandemDelayBound(flow, hops)
		if err != nil || got != want {
			t.Logf("seed %d: tandem %v/%v != %v (diff %g)", seed, got, err, want, got-want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFlowBacklogSoundVsAggregate: the per-flow bound never exceeds
// the aggregate backlog bound and never goes below the flow's own
// instantaneous burst (it must at least hold one arriving burst).
func TestFlowBacklogProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		af, ax := randConcave(r), randConcave(r)
		C := (af.FinalSlope() + ax.FinalSlope()) * (1 + r.Float64())
		var w Ws
		got, err := w.FlowBacklogBound(af, ax, C)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		agg, err := rateVerticalDeviation(Add(af, ax), C)
		if err != nil {
			return false
		}
		if got > agg+propEps*math.Max(1, agg) {
			t.Logf("seed %d: flow bound %g above aggregate %g", seed, got, agg)
			return false
		}
		if got < af.Eval(0)-propEps {
			t.Logf("seed %d: flow bound %g below own burst %g", seed, got, af.Eval(0))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWsAllocationFree pins the fast-path property the convolve row of
// TestAllocationBudgets (repo root) relies on: once warmed, curve
// operations through a Ws allocate nothing.
func TestWsAllocationFree(t *testing.T) {
	f := Min(MustCurve(0, Piece{0, 96}), TokenBucket(16, 424))
	g := TokenBucket(24, 848)
	var w Ws
	var dst Curve
	w.Convolve(&dst, f, g) // warm up scratch
	if _, err := w.FlowBacklogBound(f, g, 200); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		w.Convolve(&dst, f, g)
		if _, err := w.FlowBacklogBound(f, g, 200); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed workspace allocates %.1f per op, want 0", allocs)
	}
}
