package admission

// This file implements the Leave-in-Time service commitments of
// Section 2: the end-to-end delay bound (eq. 12), the constant beta
// (eq. 13), the delay-distribution shift (ineq. 16), the delay jitter
// bounds (ineq. 17 and its no-control counterpart), and the buffer
// space bounds. Everything is a function of the session's behavior in
// its own fixed-rate reference server — the paper's isolation property.

// Hop describes one server node of a session's route, from the
// session's point of view.
type Hop struct {
	// C is the capacity of the node's outgoing link, bits/s.
	C float64
	// Gamma is the propagation delay of the outgoing link, seconds.
	Gamma float64
	// DMax is d^n_max,s: the maximum service parameter the session's
	// packets receive at this node (from the Assignment).
	DMax float64
}

// Route is the session's path of Leave-in-Time servers, in order.
type Route struct {
	Hops []Hop
	// LMax is the network-wide maximum packet length L_MAX, bits.
	LMax float64
	// Alpha is alpha_s^N = max{d^N_i - L_i/r : i >= 1} at the final
	// node (use Assignment.Alpha). Zero for d = L/r.
	Alpha float64
}

// Beta computes the constant beta_s^{1,N} of eq. (13):
//
//	beta = sum_{n=1..N} (L_MAX/C_n + Gamma_n) + sum_{n=1..N-1} d^n_max.
func (r Route) Beta() float64 {
	var beta float64
	for i, h := range r.Hops {
		beta += r.LMax/h.C + h.Gamma
		if i < len(r.Hops)-1 {
			beta += h.DMax
		}
	}
	return beta
}

// DelayBound computes the end-to-end delay bound of eq. (12),
// D_ref_max + beta + alpha, from the session's reference-server delay
// bound.
func (r Route) DelayBound(dRefMax float64) float64 {
	return dRefMax + r.Beta() + r.Alpha
}

// Commitments computes the three service commitments of a session
// conforming to a token bucket (rate, b0), whose D_ref_max is b0/rate
// (eq. 14): the eq. 12 delay bound, the jitter bound of its mode
// (ineq. 17 under jitter control, its no-control counterpart
// otherwise) and the buffer bound at each node in route order, in
// bits. It is the one place a bound is chosen by jitter mode. With
// d = L/r under procedure 1 and one class the delay bound is eq. 15,
// the PGPS bound.
func (r Route) Commitments(rate, b0, lMin float64, jitterControl bool) (delay, jitter float64, buffer []float64) {
	dRef := b0 / rate
	jitterBound, bufferBound := r.JitterBoundNoControl, r.BufferBoundNoControl
	if jitterControl {
		jitterBound, bufferBound = r.JitterBoundControl, r.BufferBoundControl
	}
	buffer = make([]float64, len(r.Hops))
	for n := range buffer {
		buffer[n] = bufferBound(rate, dRef, lMin, n+1)
	}
	return r.DelayBound(dRef), jitterBound(dRef, lMin), buffer
}

// DeltaMax computes Delta^{1,N}_max = sum of per-node jitter
// contributions delta^n = L_MAX/C_n + d^n_max - LMin/C_n, for a session
// with minimum packet length lMin.
func (r Route) DeltaMax(lMin float64) float64 {
	var sum float64
	for _, h := range r.Hops {
		sum += r.delta(h, lMin)
	}
	return sum
}

func (r Route) delta(h Hop, lMin float64) float64 {
	return r.LMax/h.C + h.DMax - lMin/h.C
}

// JitterBoundNoControl computes the end-to-end delay jitter bound for a
// session *without* delay jitter control:
//
//	J < D_ref_max + Delta^{1,N}_max - d^N_max + alpha.
//
// The jitter of uncontrolled sessions grows with the route length.
func (r Route) JitterBoundNoControl(dRefMax, lMin float64) float64 {
	last := r.Hops[len(r.Hops)-1]
	return dRefMax + r.DeltaMax(lMin) - last.DMax + r.Alpha
}

// JitterBoundControl computes ineq. (17), the jitter bound for a
// session *with* delay jitter control:
//
//	J < D_ref_max + delta^N_max - d^N_max + alpha.
//
// Only the final node contributes, so the bound is independent of the
// route length.
func (r Route) JitterBoundControl(dRefMax, lMin float64) float64 {
	last := r.Hops[len(r.Hops)-1]
	return dRefMax + r.delta(last, lMin) - last.DMax + r.Alpha
}

// BufferBoundNoControl computes the buffer space bound (bits) for the
// session at node n (1-based) when it does not use jitter control:
//
//	Q^n < r * (D_ref_max + Delta^{1,n-1}_max + L_MAX/C_n + d^n_max).
func (r Route) BufferBoundNoControl(rate, dRefMax, lMin float64, n int) float64 {
	h := r.Hops[n-1]
	var delta float64
	for i := 0; i < n-1; i++ {
		delta += r.delta(r.Hops[i], lMin)
	}
	return rate * (dRefMax + delta + r.LMax/h.C + h.DMax)
}

// BufferBoundControl computes the buffer space bound (bits) at node n
// (1-based) for a session with jitter control:
//
//	Q^n < r * (D_ref_max + delta^{n-1}_max + L_MAX/C_n + d^n_max),
//
// with delta^0 = 0: upstream jitter does not accumulate because the
// regulators remove it hop by hop.
func (r Route) BufferBoundControl(rate, dRefMax, lMin float64, n int) float64 {
	h := r.Hops[n-1]
	var delta float64
	if n >= 2 {
		delta = r.delta(r.Hops[n-2], lMin)
	}
	return rate * (dRefMax + delta + r.LMax/h.C + h.DMax)
}

// ShiftedTail turns a reference-server delay tail function
// P(D_ref > t) into the network bound of ineq. (16):
//
//	P(D^{1,N} > d) <= P(D_ref > d - beta - alpha).
//
// refTail may be analytic (e.g. analytic.MD1.SojournTail) or empirical
// (from a reference-server simulation).
func (r Route) ShiftedTail(refTail func(float64) float64) func(float64) float64 {
	shift := r.Beta() + r.Alpha
	return func(d float64) float64 { return refTail(d - shift) }
}
