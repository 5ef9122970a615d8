package analytic

// NDD1 is the slotted N*D/D/1 queue: N sources each emit one
// fixed-length cell per frame of T slots, with independent uniformly
// random phases; the server transmits one cell per slot. This is
// exactly the superposition the paper's Figure 11 cross traffic forms
// (47 Deterministic 32 kbit/s cell streams on a T1: T = 48 slots of
// 424 bits), and the classical model for periodic voice multiplexing.
//
// QueueTail computes the exact stationary queue distribution by
// dynamic programming over the ballot-style crossing condition
//
//	Q > q  <=>  exists j in 1..T:  S_j >= q + j,
//
// where S_j is the number of phases falling in a window of j slots and
// the S_j are sequential partial sums of a multinomial (each successive
// slot captures Binomial(N - S, 1/(slots left)) of the remaining
// phases). No closed form is needed and the result is exact, unlike the
// commonly quoted approximations.
type NDD1 struct {
	// N is the number of periodic sources.
	N int
	// T is the frame length in cell slots; stability requires N < T.
	T int
}

// Rho returns the utilization N/T.
func (q NDD1) Rho() float64 { return float64(q.N) / float64(q.T) }

// QueueTail returns the exact P(Q > x), where Q is the queue length
// (in cells, including the cell in service) observed at a random slot
// just after arrivals, in steady state over the random phases.
func (q NDD1) QueueTail(x int) float64 {
	if q.N <= 0 || q.T <= 0 || q.N >= q.T {
		panic("analytic: NDD1 requires 0 < N < T")
	}
	if x < 0 {
		return 1
	}
	if x >= q.N {
		return 0
	}
	// dp[m] = P(S_j = m and no crossing among S_1..S_j).
	dp := make([]float64, q.N+1)
	ndp := make([]float64, q.N+1)
	dp[0] = 1
	for j := 1; j <= q.T; j++ {
		for i := range ndp {
			ndp[i] = 0
		}
		slotsLeft := q.T - (j - 1)
		barrier := x + j - 1 // no crossing: S_j <= x + j - 1
		for m := 0; m <= q.N; m++ {
			if dp[m] == 0 {
				continue
			}
			rem := q.N - m
			if slotsLeft == 1 {
				// The last slot captures every remaining phase.
				if m2 := m + rem; m2 <= barrier {
					ndp[m2] += dp[m]
				}
				continue
			}
			p := 1 / float64(slotsLeft)
			// Binomial(rem, p) pmf, computed incrementally.
			pc := powInt(1-p, rem)
			choose := 1.0
			for c := 0; c <= rem; c++ {
				if m2 := m + c; m2 <= barrier {
					ndp[m2] += dp[m] * pc * choose
				}
				if c < rem {
					choose *= float64(rem-c) / float64(c+1)
					pc *= p / (1 - p)
				}
			}
		}
		dp, ndp = ndp, dp
	}
	var noCross float64
	for _, v := range dp {
		noCross += v
	}
	tail := 1 - noCross
	if tail < 0 {
		return 0
	}
	if tail > 1 {
		return 1
	}
	return tail
}

func powInt(b float64, e int) float64 {
	r := 1.0
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}
