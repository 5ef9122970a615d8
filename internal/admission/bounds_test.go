package admission

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"leaveintime/internal/rng"
)

// fig6Route builds the paper's five-hop route with d_max = L/r for a
// 32 kbit/s session of 424-bit cells.
func fig6Route() Route {
	hops := make([]Hop, 5)
	for i := range hops {
		hops[i] = Hop{C: 1536e3, Gamma: 1e-3, DMax: 424.0 / 32e3}
	}
	return Route{Hops: hops, LMax: 424, Alpha: 0}
}

func TestBetaFig6(t *testing.T) {
	r := fig6Route()
	want := 5*(424.0/1536e3+1e-3) + 4*0.01325
	if got := r.Beta(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Beta = %v, want %v", got, want)
	}
}

func TestDelayBoundFig6(t *testing.T) {
	r := fig6Route()
	// D_ref = 13.25 ms gives the 72.63 ms bound quoted against Fig. 8.
	got := r.DelayBound(0.01325)
	if math.Abs(got-0.0726302083333) > 1e-9 {
		t.Errorf("delay bound = %v", got)
	}
	if tb := r.DelayBound(424 / 32e3); math.Abs(tb-got) > 1e-12 {
		t.Errorf("token bucket form differs: %v vs %v", tb, got)
	}
}

// TestCommitmentsPickByMode: Commitments is eq. 12 and, by the session's
// mode, ineq. 17 or its no-control form and the matching buffer bounds,
// each to the bit.
func TestCommitmentsPickByMode(t *testing.T) {
	r := fig6Route()
	for _, ctl := range []bool{false, true} {
		delay, jitter, buffer := r.Commitments(32e3, 424, 424, ctl)
		wantJitter, wantBuffer := r.JitterBoundNoControl, r.BufferBoundNoControl
		if ctl {
			wantJitter, wantBuffer = r.JitterBoundControl, r.BufferBoundControl
		}
		if delay != r.DelayBound(424/32e3) || jitter != wantJitter(424/32e3, 424) || len(buffer) != len(r.Hops) {
			t.Fatalf("control %v: delay %v jitter %v, %d buffer bounds", ctl, delay, jitter, len(buffer))
		}
		for n, q := range buffer {
			if want := wantBuffer(32e3, 424/32e3, 424, n+1); q != want {
				t.Errorf("control %v: node %d buffer %v, want %v", ctl, n+1, q, want)
			}
		}
	}
}

func TestJitterBoundsFig8(t *testing.T) {
	r := fig6Route()
	if got := r.JitterBoundNoControl(0.01325, 424); math.Abs(got-0.06625) > 1e-12 {
		t.Errorf("no-control jitter bound = %v, want 66.25 ms", got)
	}
	if got := r.JitterBoundControl(0.01325, 424); math.Abs(got-0.01325) > 1e-12 {
		t.Errorf("control jitter bound = %v, want 13.25 ms", got)
	}
}

func TestBufferBoundsFig12(t *testing.T) {
	r := fig6Route()
	// Node 1: r*(Dref + 0 + LMAX/C + dmax) = 32000*0.026776 bits.
	want1 := 32e3 * (0.01325 + 424.0/1536e3 + 0.01325)
	if got := r.BufferBoundNoControl(32e3, 0.01325, 424, 1); math.Abs(got-want1) > 1e-9 {
		t.Errorf("no-ctrl node 1 = %v, want %v", got, want1)
	}
	// Jitter control at node 1 coincides (delta^0 = 0).
	if got := r.BufferBoundControl(32e3, 0.01325, 424, 1); math.Abs(got-want1) > 1e-9 {
		t.Errorf("ctrl node 1 = %v, want %v", got, want1)
	}
	// Node 5 without control accumulates four deltas; with control only
	// one.
	no5 := r.BufferBoundNoControl(32e3, 0.01325, 424, 5)
	ct5 := r.BufferBoundControl(32e3, 0.01325, 424, 5)
	if no5 <= ct5 {
		t.Errorf("no-ctrl bound %v should exceed ctrl bound %v at node 5", no5, ct5)
	}
	if math.Abs(no5-32e3*(0.01325+4*0.01325+424.0/1536e3+0.01325)) > 1e-9 {
		t.Errorf("no-ctrl node 5 = %v", no5)
	}
}

func TestJitterControlBoundIndependentOfLength(t *testing.T) {
	// The with-control jitter bound must not grow with hops; the
	// no-control bound must.
	mk := func(n int) Route {
		hops := make([]Hop, n)
		for i := range hops {
			hops[i] = Hop{C: 1536e3, Gamma: 1e-3, DMax: 0.01325}
		}
		return Route{Hops: hops, LMax: 424}
	}
	j2 := mk(2).JitterBoundControl(0.01325, 424)
	j9 := mk(9).JitterBoundControl(0.01325, 424)
	if math.Abs(j2-j9) > 1e-12 {
		t.Errorf("control bound grew with hops: %v vs %v", j2, j9)
	}
	n2 := mk(2).JitterBoundNoControl(0.01325, 424)
	n9 := mk(9).JitterBoundNoControl(0.01325, 424)
	if n9 <= n2 {
		t.Errorf("no-control bound did not grow: %v vs %v", n2, n9)
	}
}

func TestAssignmentAlpha(t *testing.T) {
	// alpha = max{d(L) - L/r} over the length range.
	spec := SessionSpec{Rate: 100, LMax: 100, LMin: 50}
	fixed := Assignment{D: func(float64) float64 { return 0.3 }, DMax: 0.3, DMin: 0.3}
	// d - L/r: at LMin: 0.3-0.5 = -0.2; at LMax: 0.3-1 = -0.7.
	if got := fixed.Alpha(spec); math.Abs(got-(-0.2)) > 1e-12 {
		t.Errorf("Alpha = %v, want -0.2", got)
	}
	lr := Assignment{D: func(l float64) float64 { return l / 100 }}
	if got := lr.Alpha(spec); math.Abs(got) > 1e-12 {
		t.Errorf("Alpha for d = L/r: %v, want 0", got)
	}
}

func TestShiftedTail(t *testing.T) {
	r := fig6Route()
	base := func(t float64) float64 {
		if t < 0 {
			return 1
		}
		return math.Exp(-t)
	}
	shifted := r.ShiftedTail(base)
	shift := r.Beta() + r.Alpha
	if got := shifted(shift + 1); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("shifted tail = %v", got)
	}
	if got := shifted(shift - 0.001); got != 1 {
		t.Errorf("below shift: %v, want 1", got)
	}
}

// TestBoundMonotonicity: adding a hop can only increase beta and the
// delay bound.
func TestBoundMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 8)
		if n < 0 {
			n = -n
		}
		n++
		hops := make([]Hop, 0, n+1)
		for i := 0; i <= n; i++ {
			hops = append(hops, Hop{C: 1e6, Gamma: 1e-3, DMax: 0.01})
		}
		short := Route{Hops: hops[:n], LMax: 1000}
		long := Route{Hops: hops, LMax: 1000}
		return long.Beta() > short.Beta() &&
			long.DelayBound(0.01) > short.DelayBound(0.01) &&
			long.BufferBoundNoControl(1e5, 0.01, 1000, n) <= long.BufferBoundNoControl(1e5, 0.01, 1000, n+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEstablishBoundsMatchRoute: every number Establish returns must be,
// to the bit, what the Route method computes alone, on routes of 1 to
// 16 hops with mixed capacities, propagation delays and procedures, with
// and without jitter control. A faster Establish (beta read once, the
// no-control buffer bounds off one running delta sum) must pass it.
func TestEstablishBoundsMatchRoute(t *testing.T) {
	r := rng.New(30)
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for trial := 0; trial < 400; trial++ {
		path := make([]Link, 1+r.Intn(16))
		for i := range path {
			c := []float64{1.536e6, 2.048e6, 44.736e6, 155.52e6}[r.Intn(4)]
			ctrl, err := New(1+r.Intn(2), c, []Class{{RFrac: 0.25, Sigma: 1e-3}, {RFrac: 1, Sigma: 4e-3}})
			if err != nil {
				t.Fatal(err)
			}
			path[i] = Link{Name: fmt.Sprint("n", i), Ctrl: ctrl, C: c, Gamma: 5e-3 * r.Float64()}
		}
		lMax := 424 * float64(1+r.Intn(3))
		req := Request{
			Spec:          SessionSpec{ID: 1, Rate: 32e3 * float64(1+r.Intn(8)), LMax: lMax, LMin: lMax / float64(1+r.Intn(4))},
			Class:         1 + r.Intn(2),
			Opts:          Options{PerPacket: r.Intn(2) == 0, Eps: 1e-4 * float64(r.Intn(3))},
			JitterControl: trial%2 == 1,
			B0:            lMax * float64(1+r.Intn(4)),
		}
		b, err := Establish(path, 3*424, req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rt, rate, lMin := b.Route, req.Spec.Rate, req.Spec.LMin
		jitter, buffer := rt.JitterBoundNoControl, rt.BufferBoundNoControl
		if req.JitterControl {
			jitter, buffer = rt.JitterBoundControl, rt.BufferBoundControl
		}
		where := fmt.Sprintf("trial %d (%d hops, jitter control %v)", trial, len(path), req.JitterControl)
		if !same(b.Beta, rt.Beta()) || !same(b.DelayBound, rt.DelayBound(b.DRefMax)) {
			t.Fatalf("%s: beta %b, delay bound %b; Route reads %b, %b", where, b.Beta, b.DelayBound, rt.Beta(), rt.DelayBound(b.DRefMax))
		}
		if want := jitter(b.DRefMax, lMin); !same(b.JitterBound, want) {
			t.Fatalf("%s: jitter bound %b, Route reads %b", where, b.JitterBound, want)
		}
		if len(b.BufferBoundBits) != len(path) {
			t.Fatalf("%s: %d buffer bounds", where, len(b.BufferBoundBits))
		}
		for n, q := range b.BufferBoundBits {
			if want := buffer(rate, b.DRefMax, lMin, n+1); !same(q, want) {
				t.Fatalf("%s: buffer bound at node %d %b, Route reads %b", where, n+1, q, want)
			}
		}
	}
}
