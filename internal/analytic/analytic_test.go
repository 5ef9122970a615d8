package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"leaveintime/internal/rng"
)

func TestRefServerRecursion(t *testing.T) {
	// Hand-computed eq. (1): rate 100 bits/s, packets of 100 bits.
	rs := NewRefServer(100)
	cases := []struct {
		t, want float64
	}{
		{0, 1},   // W1 = max(0, 0) + 1 = 1
		{0.5, 2}, // W2 = max(0.5, 1) + 1 = 2
		{5, 6},   // idle gap: W3 = max(5, 2) + 1 = 6
		{5.5, 7}, // W4 = max(5.5, 6) + 1 = 7
	}
	for i, c := range cases {
		fin, d := rs.Arrive(c.t, 100)
		if math.Abs(fin-c.want) > 1e-12 {
			t.Errorf("packet %d: finish = %v, want %v", i+1, fin, c.want)
		}
		if math.Abs(d-(c.want-c.t)) > 1e-12 {
			t.Errorf("packet %d: delay = %v, want %v", i+1, d, c.want-c.t)
		}
	}
	// W_0 = t_1: a fresh server starts its first packet on arrival.
	rs = NewRefServer(100)
	fin, _ := rs.Arrive(10, 100)
	if fin != 11 {
		t.Errorf("fresh server: finish = %v, want 11", fin)
	}
}

// TestRefServerDelayAtLeastService: the delay of every packet is at
// least its own transmission time and nondecreasing under back-to-back
// arrivals.
func TestRefServerProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rs := NewRefServer(1000)
		clock := 0.0
		for i := 0; i < 200; i++ {
			clock += r.Exp(0.05)
			l := 100 + r.Float64()*900
			fin, d := rs.Arrive(clock, l)
			if d < l/1000-1e-12 {
				return false
			}
			if fin < clock {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMD1Basics(t *testing.T) {
	q := MD1{Lambda: 0.7, Service: 1}
	if rho := q.Rho(); math.Abs(rho-0.7) > 1e-12 {
		t.Errorf("Rho = %v", rho)
	}
	// P(W > 0) = rho.
	if got := q.WaitTail(0); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("WaitTail(0) = %v, want 0.7", got)
	}
	if got := q.WaitTail(-1); got != 1 {
		t.Errorf("WaitTail(-1) = %v", got)
	}
}

func TestMD1Monotone(t *testing.T) {
	for _, rho := range []float64{0.1, 0.33, 0.7, 0.95} {
		q := MD1{Lambda: rho, Service: 1}
		prev := 2.0
		for x := 0.0; x < 30; x += 0.25 {
			v := q.WaitTail(x)
			if v > prev+1e-9 {
				t.Fatalf("rho=%v: tail increased at %v: %v > %v", rho, x, v, prev)
			}
			if v < 0 || v > 1 {
				t.Fatalf("rho=%v: tail out of range at %v: %v", rho, x, v)
			}
			prev = v
		}
		// The tail decays like e^{-theta*t}; at rho = 0.95 theta is
		// only ~0.1, so a few percent of mass legitimately remains at
		// t = 30.
		ceiling := 0.001
		if rho > 0.9 {
			ceiling = 0.1
		}
		if prev > ceiling {
			t.Errorf("rho=%v: tail at 30 service times still %v", rho, prev)
		}
	}
}

// TestMD1AgainstSimulation validates the Crommelin series against a
// direct M/D/1 simulation built on the reference-server recursion
// (Poisson arrivals into a fixed-rate server ARE an M/D/1 queue).
func TestMD1AgainstSimulation(t *testing.T) {
	for _, rho := range []float64{0.33, 0.7} {
		const service = 1.0
		q := MD1{Lambda: rho, Service: service}
		r := rng.New(12345)
		rs := NewRefServer(1) // rate 1, packet length = service time
		const n = 2_000_000
		clock := 0.0
		// Empirical tail of the *sojourn* (delay) at a few thresholds.
		thresholds := []float64{1.5, 2, 3, 5, 8}
		counts := make([]int, len(thresholds))
		var meanSum float64
		for i := 0; i < n; i++ {
			clock += r.Exp(1 / q.Lambda)
			_, d := rs.Arrive(clock, service)
			meanSum += d - service // waiting time
			for j, th := range thresholds {
				if d > th {
					counts[j]++
				}
			}
		}
		// The M/D/1 mean wait, rho D / (2 (1 - rho)).
		if got, want := meanSum/n, rho*service/(2*(1-rho)); math.Abs(got-want)/want > 0.03 {
			t.Errorf("rho=%v: simulated mean wait %v, analytic %v", rho, got, want)
		}
		for j, th := range thresholds {
			sim := float64(counts[j]) / n
			ana := q.SojournTail(th)
			if ana < 1e-5 {
				continue // too deep a tail for this sample size
			}
			if math.Abs(sim-ana) > 0.15*ana+3e-4 {
				t.Errorf("rho=%v: P(D>%v): simulated %v, analytic %v", rho, th, sim, ana)
			}
		}
	}
}

func TestMD1PanicsAtSaturation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rho >= 1 did not panic")
		}
	}()
	MD1{Lambda: 1, Service: 1}.WaitTail(1)
}

func TestBigExp(t *testing.T) {
	for _, u := range []float64{0, 0.5, 1, 3.7, 20, 60} {
		got, _ := bigExp(u, 300).Float64()
		want := math.Exp(u)
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("bigExp(%v) = %v, want %v", u, got, want)
		}
	}
}

// offer reports whether a packet of the given length conforms at time
// t and, if it does, debits the bucket: a conformance checker built
// from the shaper's two calls.
func offer(tb *TokenBucket, t, length float64) bool {
	if tb.ConformanceDelay(t, length) > 0 {
		return false
	}
	tb.Take(t, length)
	return true
}

func TestTokenBucketConformance(t *testing.T) {
	tb := NewTokenBucket(100, 300) // 100 bits/s, 300-bit bucket
	if !offer(tb, 0, 300) {
		t.Fatal("full bucket rejected a bucket-sized packet")
	}
	if offer(tb, 0, 1) {
		t.Fatal("empty bucket accepted a packet")
	}
	// After 1 s, 100 bits accumulated.
	if !offer(tb, 1, 100) {
		t.Fatal("refilled bucket rejected conforming packet")
	}
	if offer(tb, 1, 1) {
		t.Fatal("bucket accepted beyond refill")
	}
}

func TestTokenBucketClampAtDepth(t *testing.T) {
	tb := NewTokenBucket(100, 300)
	if tb.refill(1000); tb.tokens != 300 {
		t.Errorf("bucket exceeded depth: %v", tb.tokens)
	}
}

func TestTokenBucketConformanceDelay(t *testing.T) {
	tb := NewTokenBucket(100, 300)
	tb.Take(0, 300) // drain
	if d := tb.ConformanceDelay(0, 200); math.Abs(d-2) > 1e-12 {
		t.Errorf("ConformanceDelay = %v, want 2", d)
	}
	if d := tb.ConformanceDelay(2, 200); d != 0 {
		t.Errorf("after waiting, delay = %v", d)
	}
}

func TestTokenBucketTimeBackwardsPanics(t *testing.T) {
	tb := NewTokenBucket(1, 1)
	tb.Take(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("time going backwards did not panic")
		}
	}()
	tb.Take(4, 1)
}

// TestTokenBucketShapedStreamConforms is the key property: a stream
// that waits ConformanceDelay before each Take always conforms when
// re-checked by a fresh bucket.
func TestTokenBucketShapedStreamConforms(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		shaper := NewTokenBucket(1000, 2000)
		checker := NewTokenBucket(1000, 2000)
		clock := 0.0
		out := 0.0
		for i := 0; i < 300; i++ {
			clock += r.Exp(0.3)
			l := 10 + r.Float64()*1990
			tEmit := clock
			if tEmit < out {
				tEmit = out
			}
			tEmit += shaper.ConformanceDelay(tEmit, l)
			shaper.Take(tEmit, l)
			out = tEmit
			if !offer(checker, tEmit, l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMG1MeanWait: with variable packet lengths the reference server is
// an M/G/1 queue, and its simulated mean wait matches the
// Pollaczek-Khinchine formula lambda E[S^2] / (2 (1 - rho)).
func TestMG1MeanWait(t *testing.T) {
	r := rng.New(5)
	rs := NewRefServer(1000)
	const n = 400000
	clock, sumW := 0.0, 0.0
	var sumS, sumS2 float64
	lam := 1.6 // arrivals/s; mean service 0.5 s -> rho 0.8
	for i := 0; i < n; i++ {
		clock += r.Exp(1 / lam)
		l := 200 + r.Float64()*600 // service 0.2..0.8 s
		s := l / 1000
		sumS += s
		sumS2 += s * s
		_, d := rs.Arrive(clock, l)
		sumW += d - s
	}
	got := sumW / n
	want := lam * (sumS2 / n) / (2 * (1 - lam*sumS/n))
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("simulated M/G/1 wait %v, P-K %v", got, want)
	}
}
