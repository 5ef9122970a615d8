package analytic

// ErlangB returns the Erlang-B blocking probability for n circuits
// offered a Erlangs (arrival rate times mean holding time), via the
// standard numerically stable recursion
//
//	B(0, a) = 1,   B(k, a) = a*B(k-1, a) / (k + a*B(k-1, a)).
//
// Leave-in-Time admission control on a single link behaves exactly
// like a loss system with C/r circuits when every session reserves the
// same rate r, so Erlang B predicts the call-blocking probability of
// the admission procedures under Poisson call arrivals — the
// connection-level complement of the packet-level guarantees.
func ErlangB(n int, a float64) float64 {
	if n < 0 {
		panic("analytic: ErlangB needs n >= 0")
	}
	if a < 0 {
		panic("analytic: ErlangB needs a >= 0")
	}
	if a == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	b := 1.0
	for k := 1; k <= n; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}
