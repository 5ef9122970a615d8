package analytic

// RefServer emulates a session's reference server: a work-conserving
// FCFS server of fixed rate r serving that session alone (Section 2,
// Figure 1 of the paper). Feeding it the session's arrival process
// yields, per packet, the finishing time W_i and delay D_ref_i via the
// recursion of eq. (1):
//
//	W_i = max{t_i, W_{i-1}} + L_i/r,   W_0 = t_1.
//
// Every Leave-in-Time service commitment is expressed relative to this
// server, so experiments use RefServer both to compute D_ref_max for
// well-behaved sources and to produce the "simulated upper bound"
// delay distributions of Figures 9-11.
type RefServer struct {
	// Rate is the reserved rate r_s in bits per second.
	Rate float64

	prev  float64 // W_{i-1}
	first bool
}

// NewRefServer returns a reference server with the given rate.
func NewRefServer(rate float64) *RefServer {
	if rate <= 0 {
		panic("analytic: NewRefServer requires rate > 0")
	}
	return &RefServer{Rate: rate, first: true}
}

// Arrive feeds the next packet (arrival time t seconds, length bits)
// and returns its finishing time W_i and delay D_ref_i = W_i - t.
// Arrival times must be nondecreasing.
func (rs *RefServer) Arrive(t, length float64) (finish, delay float64) {
	if rs.first {
		rs.prev = t // W_0 = t_1
		rs.first = false
	}
	start := t
	if rs.prev > start {
		start = rs.prev
	}
	finish = start + length/rs.Rate
	rs.prev = finish
	return finish, finish - t
}
