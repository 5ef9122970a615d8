package calculus

import (
	"errors"
	"math"
	"testing"
)

func almost(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-12*math.Max(m, 1)
}

func TestNewCurveValidation(t *testing.T) {
	cases := []struct {
		name   string
		y0     float64
		pieces []Piece
		bad    bool
	}{
		{"zero segments zero value", 0, nil, false},
		{"zero segments with burst", 7, nil, false},
		{"single piece", 5, []Piece{{0, 2}}, false},
		{"negative burst", -1, []Piece{{0, 1}}, true},
		{"nan burst", math.NaN(), nil, true},
		{"first piece not at zero", 0, []Piece{{1, 2}}, true},
		{"non-increasing breakpoints", 0, []Piece{{0, 2}, {1, 1}, {1, 3}}, true},
		{"negative slope", 0, []Piece{{0, -1}}, true},
		{"inf slope", 0, []Piece{{0, math.Inf(1)}}, true},
	}
	for _, tc := range cases {
		_, err := NewCurve(tc.y0, tc.pieces...)
		if (err != nil) != tc.bad {
			t.Errorf("%s: err = %v, want bad=%v", tc.name, err, tc.bad)
		}
	}
}

func TestZeroCurve(t *testing.T) {
	var z Curve
	if len(z.view()) != 1 {
		t.Fatalf("zero curve segments = %d, want 1", len(z.view()))
	}
	for _, x := range []float64{-1, 0, 0.5, 100} {
		if v := z.Eval(x); v != 0 {
			t.Errorf("zero.Eval(%g) = %g", x, v)
		}
	}
	tb := TokenBucket(2, 5)
	sum := Add(z, tb)
	for _, x := range []float64{0, 1, 3} {
		if sum.Eval(x) != tb.Eval(x) {
			t.Errorf("Add(zero, tb) differs at %g: %g vs %g", x, sum.Eval(x), tb.Eval(x))
		}
	}
}

func TestEqualSlopeSegmentsMerge(t *testing.T) {
	// Three pieces, the middle one a slope repeat: must collapse to
	// two segments with identical evaluations.
	c := MustCurve(0, Piece{0, 5}, Piece{1, 5}, Piece{2, 3})
	if got := len(c.view()); got != 2 {
		t.Fatalf("segments = %d, want 2 (equal-slope neighbors must merge)", got)
	}
	// Hand-computed: 5t on [0,2], then 10 + 3(t-2).
	for _, p := range []struct{ x, want float64 }{{0, 0}, {1, 5}, {2, 10}, {4, 16}} {
		if v := c.Eval(p.x); v != p.want {
			t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
		}
	}
	// A flat repeat merges too.
	f := MustCurve(3, Piece{0, 0}, Piece{5, 0})
	if len(f.view()) != 1 {
		t.Fatalf("flat repeat segments = %d, want 1", len(f.view()))
	}
}

func TestSinglePointAndFlat(t *testing.T) {
	// A constant curve ("single point" degenerate: one breakpoint, no
	// growth).
	c := MustCurve(7)
	if len(c.view()) != 1 || c.FinalSlope() != 0 {
		t.Fatalf("constant curve: segs=%d slope=%g", len(c.view()), c.FinalSlope())
	}
	if c.Eval(0) != 7 || c.Eval(1e9) != 7 {
		t.Fatal("constant curve evaluation")
	}
	// Rate-0 interior segment: burst 10, flat for 2s, then slope 4.
	r := MustCurve(10, Piece{0, 0}, Piece{2, 4})
	for _, p := range []struct{ x, want float64 }{{0, 10}, {1, 10}, {2, 10}, {3, 14}} {
		if v := r.Eval(p.x); v != p.want {
			t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
		}
	}
}

func TestEvalJumpAtZero(t *testing.T) {
	tb := TokenBucket(2, 5)
	if tb.Eval(-1) != 0 {
		t.Error("Eval(-1) != 0")
	}
	if tb.Eval(0) != 5 {
		t.Error("Eval(0) != burst")
	}
	if tb.Eval(2) != 9 {
		t.Error("Eval(2) != 9")
	}
}

func TestMinPeakCap(t *testing.T) {
	// Token bucket 10 + t capped by a 5t peak line: cross at t = 2.5.
	f := TokenBucket(1, 10)
	g := MustCurve(0, Piece{0, 5})
	m := Min(f, g)
	if len(m.view()) != 2 {
		t.Fatalf("segments = %d, want 2, segs %+v", len(m.view()), m.view())
	}
	for _, p := range []struct{ x, want float64 }{{0, 0}, {1, 5}, {2.5, 12.5}, {3, 13}, {10, 20}} {
		if v := m.Eval(p.x); !almost(v, p.want) {
			t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
		}
	}
	if v := m.view(); v[1].Slope > v[0].Slope {
		t.Error("min of concave curves must stay concave")
	}
}

func TestAddTwoSegment(t *testing.T) {
	f := TokenBucket(2, 5)
	g := MustCurve(0, Piece{0, 3}, Piece{1, 1})
	sum := Add(f, g)
	// Hand-computed: burst 5, slope 5 on [0,1], value 10 at 1, slope 3 after.
	for _, p := range []struct{ x, want float64 }{{0, 5}, {1, 10}, {2, 13}} {
		if v := sum.Eval(p.x); v != p.want {
			t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
		}
	}
}

func TestDelayedMultiSegment(t *testing.T) {
	// Burst 4, slope 6 on [0,2], slope 1 after; delayed by 3 the
	// first active segment is the tail: value 4+12+1 = 17 at 0.
	c := MustCurve(4, Piece{0, 6}, Piece{2, 1})
	d := c.Delayed(3)
	if len(d.view()) != 1 {
		t.Fatalf("segments = %d, want 1", len(d.view()))
	}
	if v := d.Eval(0); v != 17 {
		t.Errorf("Delayed(3).Eval(0) = %g, want 17", v)
	}
	// Delay inside the first segment keeps the kink, shifted.
	d1 := c.Delayed(1)
	for _, p := range []struct{ x, want float64 }{{0, 10}, {1, 16}, {2, 17}} {
		if v := d1.Eval(p.x); v != p.want {
			t.Errorf("Delayed(1).Eval(%g) = %g, want %g", p.x, v, p.want)
		}
	}
}

func TestConvolveHandComputed(t *testing.T) {
	t.Run("token buckets", func(t *testing.T) {
		// TB(3,10) ⊗ TB(1,4) = 14 + min(3t, t) = 14 + t.
		c := Convolve(TokenBucket(3, 10), TokenBucket(1, 4))
		for _, p := range []struct{ x, want float64 }{{0, 14}, {5, 19}} {
			if v := c.Eval(p.x); !almost(v, p.want) {
				t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
			}
		}
		if len(c.view()) != 1 {
			t.Errorf("segments = %d, want 1: %+v", len(c.view()), c.view())
		}
	})
	t.Run("rate latencies", func(t *testing.T) {
		// RL(10,1) ⊗ RL(5,2) = RL(5,3): latencies add, rates min.
		c := Convolve(RateLatency(10, 1), RateLatency(5, 2))
		for _, p := range []struct{ x, want float64 }{{0, 0}, {3, 0}, {4, 5}, {5, 10}} {
			if v := c.Eval(p.x); !almost(v, p.want) {
				t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
			}
		}
	})
	t.Run("mixed concave convex", func(t *testing.T) {
		// TB(2,6) ⊗ RL(4,1): constant 6 on [0,1], then slope 2.
		c := Convolve(TokenBucket(2, 6), RateLatency(4, 1))
		for _, p := range []struct{ x, want float64 }{{0, 6}, {0.5, 6}, {1, 6}, {3, 10}} {
			if v := c.Eval(p.x); !almost(v, p.want) {
				t.Errorf("Eval(%g) = %g, want %g", p.x, v, p.want)
			}
		}
	})
}

func TestDeviationsHandComputed(t *testing.T) {
	alpha := TokenBucket(2, 10)
	beta := RateLatency(4, 3)
	v, err := VerticalDeviation(alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	// Max gap at the end of the latency: 10 + 2·3 = 16.
	if !almost(v, 16) {
		t.Errorf("v = %g, want 16", v)
	}
	h, err := HorizontalDeviation(alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	// At t=0: first time beta reaches 10 is 3 + 10/4 = 5.5; the gap
	// only shrinks after (alpha slope 2 < beta slope 4).
	if !almost(h, 5.5) {
		t.Errorf("h = %g, want 5.5", h)
	}
	// Bounded beta below alpha's reach: unstable.
	if _, err := HorizontalDeviation(TokenBucket(0, 10), MustCurve(0, Piece{0, 4}, Piece{2, 0})); !errors.Is(err, ErrUnstable) {
		t.Errorf("want ErrUnstable for bounded service below arrivals, got %v", err)
	}
	// Bounded beta above alpha's cap: fine.
	h2, err := HorizontalDeviation(MustCurve(6), MustCurve(0, Piece{0, 4}, Piece{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(h2, 1.5) {
		t.Errorf("h = %g, want 1.5 (6/4)", h2)
	}
}

func TestBusyPeriodBound(t *testing.T) {
	// 12 + 2t = 4t at t = 6.
	b, err := BusyPeriodBound(TokenBucket(2, 12), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 6) {
		t.Errorf("busy period = %g, want 6", b)
	}
	// Peak-capped burst: min(10t, 12+2t) vs C=4: crossing of the tail
	// segment 12+2t with 4t is still t=6 (cap only reshapes the
	// prefix).
	capped := Min(MustCurve(0, Piece{0, 10}), TokenBucket(2, 12))
	b2, err := BusyPeriodBound(capped, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b2, 6) {
		t.Errorf("busy period = %g, want 6", b2)
	}
	if _, err := BusyPeriodBound(TokenBucket(4, 1), 4); !errors.Is(err, ErrUnstable) {
		t.Errorf("rho == C with surplus: want ErrUnstable, got %v", err)
	}
}

func TestFlowBacklogBoundHandComputed(t *testing.T) {
	// af = TB(1,5), ax = TB(2,10), C = 4. The leftover-service family
	// at theta = sigma_x/C = 2.5 gives v(af, beta) = 7.5, beating the
	// aggregate backlog (15) and the delay-window bound af(15/4) = 8.75.
	var w Ws
	got, err := w.FlowBacklogBound(TokenBucket(1, 5), TokenBucket(2, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 7.5) {
		t.Errorf("flow backlog = %g, want 7.5", got)
	}
	// Saturated server (rho_f + rho_x == C) still has a finite
	// backlog bound; strictly above C does not.
	if _, err := w.FlowBacklogBound(TokenBucket(2, 5), TokenBucket(2, 10), 4); err != nil {
		t.Errorf("exact saturation must stay bounded, got %v", err)
	}
	if _, err := w.FlowBacklogBound(TokenBucket(3, 5), TokenBucket(2, 10), 4); !errors.Is(err, ErrUnstable) {
		t.Errorf("overload: want ErrUnstable, got %v", err)
	}
	// Server method adds the +LMax packetization term.
	srv := FCFSServer{C: 4, LMax: 2}
	withPkt, err := srv.FlowBacklogBound(&w, TokenBucket(1, 5), TokenBucket(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(withPkt, 9.5) {
		t.Errorf("packetized flow backlog = %g, want 9.5", withPkt)
	}
}

func TestFlowBacklogBoundJumpCandidate(t *testing.T) {
	// Regression: af = 1 + 8t capped to slope 1 after t = 7,
	// ax = TB(4, 40), C = 10. The af-kink candidate theta = 7 builds a
	// leftover curve that jumps from 0 to C*7 - ax(0) = 30 at theta;
	// evaluating only the post-jump breakpoint yields af(7) - 30 = 27,
	// below the flow backlog ~36.67 that greedy curve-conforming FIFO
	// arrivals actually reach — an unsound bound. With the jump
	// accounted (the deviation of each candidate is floored at
	// af(theta)), the minimum comes from the continuous candidate
	// theta = ax(0)/C = 4: af(7) - beta_4(7) = 57 - 18 = 39.
	var w Ws
	af := MustCurve(1, Piece{0, 8}, Piece{7, 1})
	got, err := w.FlowBacklogBound(af, TokenBucket(4, 40), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 39) {
		t.Errorf("flow backlog = %g, want 39", got)
	}
	if got < 36.67 {
		t.Errorf("flow backlog %g below achievable 36.67 — unsound", got)
	}
}

func TestUnstableBoundaryRhoToC(t *testing.T) {
	srv := FCFSServer{C: 100, LMax: 10}
	// Exactly at capacity: rejected.
	if _, err := srv.DelayBound(TokenBucket(100, 50)); !errors.Is(err, ErrUnstable) {
		t.Errorf("rho == C: want ErrUnstable, got %v", err)
	}
	// One ulp below capacity: accepted, and the closed form
	// sigma/C + LMax/C bit for bit.
	rho := math.Nextafter(100, 0)
	d, err := srv.DelayBound(TokenBucket(rho, 50))
	if err != nil {
		t.Fatal(err)
	}
	if want := 50.0/100 + 10.0/100; d != want {
		t.Errorf("one-segment delay bound %v != sigma/C + LMax/C = %v", d, want)
	}
	// Multi-segment aggregate whose *final* slope is stable is fine
	// even with a steep prefix.
	steep := Min(MustCurve(0, Piece{0, 1000}), TokenBucket(60, 500))
	if _, err := srv.DelayBound(steep); err != nil {
		t.Errorf("stable final slope must pass: %v", err)
	}
}

// TestEnvelopeCurveRoundTrip: a (sigma, rho) envelope written as a
// curve reads back as the same pair, and a curve with a second segment
// is no such envelope.
func TestEnvelopeCurveRoundTrip(t *testing.T) {
	c := TokenBucket(3.25, 12.5)
	if sigma, rho, ok := sigmaRho(c); !ok || sigma != 12.5 || rho != 3.25 {
		t.Fatalf("round trip: (%v, %v) ok=%v", sigma, rho, ok)
	}
	if _, _, ok := sigmaRho(Min(MustCurve(0, Piece{0, 9}), c)); ok {
		t.Fatal("multi-segment curve must not read as a (sigma, rho) envelope")
	}
}
