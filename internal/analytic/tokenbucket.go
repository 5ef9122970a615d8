package analytic

// TokenBucket is the (r, b0) token bucket filter of Section 2 of the
// paper: tokens accumulate at rate R bits per second into a bucket
// holding at most B0 bits, starting full. A session conforms if every
// packet of length L finds at least L tokens available at generation
// time.
//
// For a session conforming to (r_s, b_0s) served at its reserved rate,
// the paper's eq. (14) gives the reference-server delay bound
// D_ref_max = b_0s / r_s.
type TokenBucket struct {
	R  float64 // token rate, bits/s
	B0 float64 // bucket depth, bits

	tokens float64
	last   float64
	inited bool
}

// NewTokenBucket returns a full bucket with rate r and depth b0.
func NewTokenBucket(r, b0 float64) *TokenBucket {
	if r <= 0 || b0 <= 0 {
		panic("analytic: NewTokenBucket requires r > 0 and b0 > 0")
	}
	return &TokenBucket{R: r, B0: b0, tokens: b0}
}

// slack is the tolerance for conformance comparisons: a shaper that
// waits exactly ConformanceDelay refills the bucket through a
// divide-then-multiply round trip, so a few ulps of slack are required
// for shaped streams to re-verify as conforming.
func (tb *TokenBucket) slack(length float64) float64 {
	return 1e-9 * (tb.B0 + length)
}

// ConformanceDelay returns how long a packet of the given length
// arriving at time t would have to be held for the bucket to cover it
// (0 if it conforms immediately). It does not debit the bucket. Useful
// for building token-bucket shapers.
func (tb *TokenBucket) ConformanceDelay(t, length float64) float64 {
	tb.refill(t)
	if length <= tb.tokens+tb.slack(length) {
		return 0
	}
	return (length - tb.tokens) / tb.R
}

// Take debits the bucket for a packet at time t regardless of
// conformance (the level is clamped at zero, so Take is intended to
// follow a successful ConformanceDelay wait).
func (tb *TokenBucket) Take(t, length float64) {
	tb.refill(t)
	tb.tokens -= length
	if tb.tokens < 0 {
		tb.tokens = 0
	}
}

func (tb *TokenBucket) refill(t float64) {
	if !tb.inited {
		tb.last = t
		tb.inited = true
		return
	}
	if t < tb.last {
		panic("analytic: TokenBucket time went backwards")
	}
	tb.tokens += (t - tb.last) * tb.R
	if tb.tokens > tb.B0 {
		tb.tokens = tb.B0
	}
	tb.last = t
}
