package calculus

import (
	"errors"
	"testing"
	"testing/quick"

	"leaveintime/internal/analytic"
	"leaveintime/internal/rng"
)

// sigmaRho reads a curve as Cruz's (sigma, rho) burstiness constraint;
// ok is false when it has more than one segment and so is none.
func sigmaRho(c Curve) (sigma, rho float64, ok bool) {
	segs := c.view()
	if len(segs) != 1 {
		return 0, 0, false
	}
	return segs[0].Y, segs[0].Slope, true
}

// TestEnvelopeAlgebra: on (sigma, rho) envelopes the curve operations
// are Cruz's closed forms — superposition adds both, a delay jitter of
// d grows the burst to sigma + rho*d — and stay envelopes.
func TestEnvelopeAlgebra(t *testing.T) {
	a := TokenBucket(1e5, 1000)
	b := TokenBucket(2e5, 500)
	if sigma, rho, ok := sigmaRho(Add(a, b)); !ok || sigma != 1500 || rho != 3e5 {
		t.Errorf("Add = (%v, %v) ok=%v", sigma, rho, ok)
	}
	if sigma, rho, ok := sigmaRho(SumCurves(a, b, a)); !ok || sigma != 2500 || rho != 4e5 {
		t.Errorf("SumCurves = (%v, %v) ok=%v", sigma, rho, ok)
	}
	if sigma, rho, ok := sigmaRho(a.Delayed(0.01)); !ok || sigma != 1000+1e5*0.01 || rho != 1e5 {
		t.Errorf("Delayed = (%v, %v) ok=%v", sigma, rho, ok)
	}
	if sigma, rho, ok := sigmaRho(TokenBucket(32e3, 424)); !ok || sigma != 424 || rho != 32e3 {
		t.Errorf("TokenBucket = (%v, %v) ok=%v", sigma, rho, ok)
	}
}

func TestFCFSBounds(t *testing.T) {
	s := FCFSServer{C: 1e6, LMax: 1000}
	agg := TokenBucket(0.8e6, 5000)
	d, err := s.DelayBound(agg)
	if err != nil {
		t.Fatal(err)
	}
	if d != 5000.0/1e6+1000.0/1e6 {
		t.Errorf("DelayBound = %v", d)
	}
	b, err := rateVerticalDeviation(agg, s.C)
	if err != nil || b != 5000 {
		t.Errorf("backlog bound = %v, %v", b, err)
	}
	if _, err := s.DelayBound(TokenBucket(1e6, 1)); !errors.Is(err, ErrUnstable) {
		t.Errorf("instability not detected: %v", err)
	}
}

func TestOutputBurstiness(t *testing.T) {
	s := FCFSServer{C: 1e6, LMax: 1000}
	flow := TokenBucket(1e5, 1000)
	cross := TokenBucket(0.7e6, 4000)
	d, err := s.DelayBound(Add(flow, cross))
	if err != nil {
		t.Fatal(err)
	}
	sigma, rho, ok := sigmaRho(flow.Delayed(d))
	if !ok || rho != 1e5 {
		t.Errorf("output rate changed: %v (one segment: %v)", rho, ok)
	}
	if sigma != 1000+1e5*d || sigma <= 1000 {
		t.Errorf("output burst %v, want sigma + rho*d = %v", sigma, 1000+1e5*d)
	}
}

func TestTandemGrowsPerHop(t *testing.T) {
	flow := TokenBucket(32e3, 424)
	mk := func(n int) []TandemHop {
		hops := make([]TandemHop, n)
		for i := range hops {
			hops[i] = TandemHop{
				Server: FCFSServer{C: 1536e3, LMax: 424},
				Cross:  TokenBucket(1472e3, 5*424),
				Gamma:  1e-3,
			}
		}
		return hops
	}
	d3, err := TandemDelayBound(flow, mk(3))
	if err != nil {
		t.Fatal(err)
	}
	d5, err := TandemDelayBound(flow, mk(5))
	if err != nil {
		t.Fatal(err)
	}
	if d5 <= d3 {
		t.Errorf("tandem bound not growing: %v vs %v", d3, d5)
	}
}

func TestTandemUnstable(t *testing.T) {
	flow := TokenBucket(32e3, 424)
	hops := []TandemHop{{
		Server: FCFSServer{C: 1536e3, LMax: 424},
		Cross:  TokenBucket(1536e3, 424),
	}}
	if _, err := TandemDelayBound(flow, hops); !errors.Is(err, ErrUnstable) {
		t.Errorf("instability not propagated: %v", err)
	}
}

// TestBacklogBoundHoldsInSimulation: feed a shaped flow through a
// simulated FCFS queue and verify Cruz's backlog bound via the
// reference-server recursion (a fixed-rate FCFS server's backlog is
// exactly what eq. (1) computes).
func TestBacklogBoundHoldsInSimulation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const (
			c     = 1e6
			sigma = 3000.0
			rho   = 0.6e6
		)
		server := analytic.NewRefServer(c)
		shaper := analytic.NewTokenBucket(rho, sigma)
		clock := 0.0
		maxBacklogSec := 0.0
		for i := 0; i < 500; i++ {
			clock += r.Exp(1000 / rho) // offered faster than sustainable
			l := 100 + r.Float64()*900
			tEmit := clock + shaper.ConformanceDelay(clock, l)
			shaper.Take(tEmit, l)
			clock = tEmit
			// The unfinished work just after this arrival is its delay.
			if _, b := server.Arrive(tEmit, l); b > maxBacklogSec {
				maxBacklogSec = b
			}
		}
		bound, err := rateVerticalDeviation(TokenBucket(rho, sigma), c)
		if err != nil {
			return false
		}
		// Backlog in bits = backlog-seconds * C; allow one packet of
		// slack for the in-service packet accounting.
		return maxBacklogSec*c <= bound+1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCruzVersusLeaveInTime reproduces the Section 4 contrast: the
// Cruz FCFS bound depends on everyone's burstiness; the Leave-in-Time
// bound does not. Double the cross traffic's burst and only the FCFS
// bound moves.
func TestCruzVersusLeaveInTime(t *testing.T) {
	flow := TokenBucket(32e3, 424)
	mk := func(crossSigma float64) []TandemHop {
		hops := make([]TandemHop, 5)
		for i := range hops {
			hops[i] = TandemHop{
				Server: FCFSServer{C: 1536e3, LMax: 424},
				Cross:  TokenBucket(1200e3, crossSigma),
				Gamma:  1e-3,
			}
		}
		return hops
	}
	small, err := TandemDelayBound(flow, mk(10*424))
	if err != nil {
		t.Fatal(err)
	}
	big, err := TandemDelayBound(flow, mk(100*424))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("FCFS bound insensitive to cross burstiness: %v vs %v", small, big)
	}
	// The Leave-in-Time bound for the same session is a constant of
	// the session alone (computed here for contrast: ~72.6 ms).
	const litBound = 0.0726302083
	if small < litBound {
		t.Logf("note: with gentle cross traffic the FCFS bound %v can undercut LiT's %v — isolation costs something", small, litBound)
	}
}
