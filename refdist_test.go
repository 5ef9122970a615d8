package lit_test

import (
	"math"
	"testing"

	lit "leaveintime"
	"leaveintime/internal/analytic"
	"leaveintime/internal/stats"
	"leaveintime/internal/traffic"
)

// referenceDistribution feeds n packets of src through a reference
// server of the given rate (eq. 1) and returns the histogram of the
// reference delays D_ref: the empirical ingredient of ineq. (16).
func referenceDistribution(src lit.Source, rate float64, n int, binWidth float64, nbins int) *lit.Histogram {
	rs := analytic.NewRefServer(rate)
	h := stats.NewHistogram(binWidth, nbins)
	clock := 0.0
	for i := 0; i < n; i++ {
		gap, length := src.Next()
		clock += gap
		_, d := rs.Arrive(clock, length)
		h.Add(d)
	}
	return h
}

func TestReferenceDistributionMatchesMD1(t *testing.T) {
	// A Poisson source through the reference server is an M/D/1 queue:
	// the empirical distribution must match the analytic one.
	const (
		rate = 400e3
		mean = 1.5143e-3
		pkt  = 424.0
	)
	src := &lit.Poisson{Mean: mean, Length: pkt, Rng: lit.NewRand(6)}
	h := referenceDistribution(src, rate, 300000, 0.25e-3, 400)
	q := lit.MD1{Lambda: 1 / mean, Service: pkt / rate}
	for _, d := range []float64{2e-3, 5e-3, 10e-3, 15e-3} {
		emp := h.TailProb(d)
		ana := q.SojournTail(d)
		if math.Abs(emp-ana) > 0.1*ana+2e-3 {
			t.Errorf("P(Dref > %v): empirical %v, analytic %v", d, emp, ana)
		}
	}
}

func TestBoundedTailShifts(t *testing.T) {
	src := &traffic.Deterministic{Interval: 0.01325, Length: 424}
	h := referenceDistribution(src, 32e3, 1000, 1e-3, 100)
	hops := []lit.Hop{{C: 1536e3, Gamma: 1e-3, DMax: 424.0 / 32e3}}
	route := lit.Route{Hops: hops, LMax: 424}
	// Ineq. (16): the empirical reference tail shifted by beta + alpha.
	bound := route.ShiftedTail(h.TailProb)
	// Below the shift the bound is 1 (nothing can be excluded).
	if got := bound(0); got != 1 {
		t.Errorf("bound(0) = %v, want 1", got)
	}
	// A deterministic conforming source has D_ref = L/r exactly, so
	// the bound collapses past shift + L/r (+ one bin of rounding).
	shift := route.Beta() + route.Alpha
	if got := bound(shift + 0.01325 + 2e-3); got != 0 {
		t.Errorf("bound far past shift = %v, want 0", got)
	}
}
