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

// ErlangC returns the Erlang-C probability of queueing for n servers
// offered a Erlangs (a < n), derived from Erlang B:
//
//	C(n, a) = n*B / (n - a*(1-B)).
func ErlangC(n int, a float64) float64 {
	if a >= float64(n) {
		panic("analytic: ErlangC requires a < n")
	}
	b := ErlangB(n, a)
	return float64(n) * b / (float64(n) - a*(1-b))
}

// MG1MeanWait returns the Pollaczek-Khinchine mean waiting time of an
// M/G/1 queue with arrival rate lambda and service moments E[S],
// E[S^2]:
//
//	E[W] = lambda * E[S^2] / (2 (1 - rho)),  rho = lambda E[S].
//
// With E[S^2] = E[S]^2 (deterministic service) it reduces to the
// M/D/1 mean wait rho E[S] / (2 (1 - rho)); it generalizes the reference-server analysis to
// variable packet lengths.
func MG1MeanWait(lambda, meanS, meanS2 float64) float64 {
	rho := lambda * meanS
	if rho >= 1 {
		panic("analytic: MG1MeanWait requires rho < 1")
	}
	if meanS2 < meanS*meanS {
		panic("analytic: E[S^2] cannot be below E[S]^2")
	}
	return lambda * meanS2 / (2 * (1 - rho))
}
