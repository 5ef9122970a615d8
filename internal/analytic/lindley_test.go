package analytic

import (
	"math"
	"testing"
)

// TestLindleyAgreesWithCrommelin cross-validates the two independent
// M/D/1 waiting-time implementations against each other.
func TestLindleyAgreesWithCrommelin(t *testing.T) {
	for _, rho := range []float64{0.33, 0.7, 0.9} {
		q := MD1{Lambda: rho, Service: 1}
		// Higher rho has a longer tail: push the reflecting barrier
		// out so it does not distort the queried range.
		xMax, step := 25.0, 1.0/400
		if rho > 0.8 {
			xMax, step = 80, 1.0/200
		}
		l := SolveLindleyMD1(rho, 1, xMax, step)
		for _, x := range []float64{0, 0.25, 0.5, 1, 2, 3.5, 5, 8, 12} {
			a := 1 - q.WaitTail(x)
			b := l.WaitCDF(x)
			// The Lindley grid overestimates slightly (right-edge
			// evaluation); allow a small absolute and relative band.
			if math.Abs(a-b) > 0.01*(1-a)+2e-3 {
				t.Errorf("rho=%v x=%v: series %v vs lindley %v", rho, x, a, b)
			}
		}
	}
}

func TestLindleyTailDecays(t *testing.T) {
	l := SolveLindleyMD1(0.7, 1, 25, 1.0/200)
	prev := 1.0
	for x := 0.0; x < 20; x += 0.5 {
		v := l.WaitTail(x)
		if v > prev+1e-9 {
			t.Fatalf("tail increased at %v: %v > %v", x, v, prev)
		}
		prev = v
	}
	// The grid method's accuracy floor is ~1e-4 at this step; the
	// true tail here is ~1e-6 (the 300-bit series resolves it; see
	// TestLindleyAgreesWithCrommelin for the mid-range check).
	if l.WaitTail(20) > 1e-3 {
		t.Errorf("tail at 20 service times = %v", l.WaitTail(20))
	}
}

func TestLindleyValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { SolveLindleyMD1(1, 1, 10, 0.01) },
		func() { SolveLindleyMD1(0.5, 1, 0.5, 0.01) },
		func() { SolveLindleyMD1(0.5, 1, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLindleyAtZero(t *testing.T) {
	l := SolveLindleyMD1(0.7, 1, 25, 1.0/400)
	if got := l.WaitCDF(0); math.Abs(got-0.3) > 5e-3 {
		t.Errorf("P(W=0) = %v, want ~0.3", got)
	}
	if l.WaitCDF(-1) != 0 {
		t.Error("negative t")
	}
	if l.WaitCDF(1000) != 1 {
		t.Error("beyond grid")
	}
}

// LindleyMD1 is the reference MD1's series is tested against: it
// computes the stationary waiting-time CDF of an M/D/1 queue by
// iterating the Lindley recursion
//
//	W' = max(0, W + D - A),   A ~ Exp(lambda)
//
// on a uniform grid until the distribution converges. It is an
// independent numerical method that cross-validates the Crommelin
// series of MD1.WaitTail (the two implementations share no code or
// formula).
//
// Accuracy is limited by the grid step and by the exponential-tail
// truncation at xMax; it resolves tails down to roughly 1e-6 with
// step = D/400, which is ample for validation.
type LindleyMD1 struct {
	Lambda  float64 // arrival rate, 1/s
	Service float64 // deterministic service time, s

	grid []float64 // G[i] = P(W <= i*Step)
	step float64
	xMax float64
}

// SolveLindleyMD1 iterates to convergence over the support [0, xMax]
// with the given grid step. It panics if rho >= 1.
func SolveLindleyMD1(lambda, service, xMax, step float64) *LindleyMD1 {
	if lambda*service >= 1 {
		panic("analytic: SolveLindleyMD1 requires rho < 1")
	}
	if step <= 0 || xMax <= service {
		panic("analytic: SolveLindleyMD1 needs positive step and xMax > service")
	}
	l := &LindleyMD1{Lambda: lambda, Service: service, step: step, xMax: xMax}
	n := int(xMax/step) + 1
	g := make([]float64, n)
	for i := range g {
		g[i] = 1 // start from W = 0 a.s.
	}
	// Mass representation with a midpoint rule: an atom dG[0] at w = 0
	// and bin masses dG[i] = G(ih) - G((i-1)h) located at the midpoint
	// w_i = (i-0.5)h. The update
	//
	//	G'(x) = sum_i weight_i(y) dG[i],  y = x - D,
	//	weight_i = 1 if w_i <= y, else e^{-lambda (w_i - y)},
	//
	// counts every unit of mass exactly once, so the discretization
	// error is centered O(h^2) per step instead of a systematic
	// one-sided loss that would compound across iterations.
	dG := make([]float64, n)
	pre := make([]float64, n+1)  // prefix of dG
	sufE := make([]float64, n+1) // suffix of e^{-lambda w_i} dG[i]
	w := make([]float64, n)
	for i := 1; i < n; i++ {
		w[i] = (float64(i) - 0.5) * step
	}
	// The sweep's two exponentials depend on the grid alone, so they are
	// taken once: e^{-lambda w_i} and e^{lambda y_i}, y_i = ih - D.
	expW, expY := make([]float64, n), make([]float64, n)
	for i := range expW {
		expW[i] = math.Exp(-lambda * w[i])
		expY[i] = math.Exp(lambda * (float64(i)*step - service))
	}
	next := make([]float64, n)
	for iter := 0; iter < 20000; iter++ {
		dG[0] = g[0]
		for i := 1; i < n; i++ {
			dG[i] = g[i] - g[i-1]
		}
		pre[0] = 0
		for i := 0; i < n; i++ {
			pre[i+1] = pre[i] + dG[i]
		}
		sufE[n] = 0
		for i := n - 1; i >= 0; i-- {
			sufE[i] = sufE[i+1] + expW[i]*dG[i]
		}
		var maxDiff float64
		for i := 0; i < n; i++ {
			y := float64(i)*step - service
			var v float64
			if y < 0 {
				// All mass is above y: every bin weighted
				// e^{-lambda (w_i - y)}.
				v = expY[i] * sufE[0]
			} else {
				// Bins with midpoint <= y count fully; the rest decay.
				j := int(y/step+0.5) + 1 // first bin with w_i > y
				if j > n {
					j = n
				}
				v = pre[j] + expY[i]*sufE[j]
			}
			if v > 1 {
				v = 1
			}
			next[i] = v
			if d := math.Abs(v - g[i]); d > maxDiff {
				maxDiff = d
			}
		}
		// Reflecting barrier at xMax: mass that would drift past the
		// grid stays in the last bin. Without this, the few permille
		// of boundary flow leak out on every iteration and the slow
		// mixing at high rho compounds the loss into a collapse of the
		// whole distribution. The barrier biases only the last ~D of
		// the grid; choose xMax comfortably beyond the range queried.
		next[n-1] = 1
		copy(g, next)
		if maxDiff < 1e-12 {
			break
		}
	}
	l.grid = g
	return l
}

// WaitCDF returns the converged P(W <= t) (clamped to the grid range).
func (l *LindleyMD1) WaitCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	i := int(t / l.step)
	if i >= len(l.grid) {
		return 1
	}
	return l.grid[i]
}

// WaitTail returns P(W > t).
func (l *LindleyMD1) WaitTail(t float64) float64 { return 1 - l.WaitCDF(t) }
