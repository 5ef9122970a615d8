package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/network"
	"leaveintime/internal/sched"
)

// Section4StopAndGo evaluates the paper's Section 4 worked comparison
// between Leave-in-Time and Stop-and-Go. The session generates at most
// 10 packets of length 0.01*T*C in any interval of T seconds (average
// rate 0.1*C) and both schemes allocate bandwidth 0.1*C.
//
//   - Stop-and-Go's end-to-end delay is alpha*H*T (+-T) with
//     alpha in [1, 2); the per-link increase is alpha*T. The 2HT end is
//     the stopandgo row's bound (sched.Table). Its jitter bound is
//     Golestani's 2T, the paper's figure; the row promises (H+1)T,
//     since its frames are aligned network-wide.
//   - Leave-in-Time (AC 1, one class, d = L/r = 0.1*T) has bound
//     D_ref_max + beta = T + beta; the per-link increase is
//     L_MAX/C + 0.1*T. The bound and the ineq. 17 jitter bound are the
//     lit row's promise.
type Section4StopAndGo struct {
	T, C   float64
	N      int
	LMax   float64 // packet length of the session: 0.01*T*C
	DRef   float64 // T (token bucket (0.1C, 0.1CT))
	LiT    float64 // Leave-in-Time end-to-end bound, propagation excluded
	SGLow  float64 // Stop-and-Go bound with alpha = 1, i.e. H*T
	SGHigh float64 // Stop-and-Go bound with alpha -> 2, i.e. 2*H*T
	// PerLinkLiT and PerLinkSG are the per-link increases of the two
	// bounds.
	PerLinkLiT float64
	PerLinkSG  [2]float64
	// JitterLiT is the Leave-in-Time jitter bound (ineq. 17) for the
	// jitter-controlled session; JitterSG is Golestani's 2T.
	JitterLiT float64
	JitterSG  float64
}

// RunSection4StopAndGo computes the comparison for frame time t, link
// capacity c and a route of n hops.
func RunSection4StopAndGo(t, c float64, n int) Section4StopAndGo {
	lPkt := 0.01 * t * c
	rate := 0.1 * c
	flows, routes := []sched.Flow{section4Flow(rate, rate*t, lPkt)}, [][]sched.Hop{section4Route(n, c, 0, rate)}
	lit := sched.Lookup("lit").Bound(flows, routes, lPkt, t)[0]
	sg := sched.Lookup("stopandgo").Bound(flows, routes, lPkt, t)[0]
	return Section4StopAndGo{
		T: t, C: c, N: n, LMax: lPkt,
		DRef:       t, // D_ref_max = b0/r = 0.1CT / 0.1C
		LiT:        lit.Bound,
		SGLow:      float64(n) * t,
		SGHigh:     sg.Bound,
		PerLinkLiT: lPkt/c + lPkt/rate,
		PerLinkSG:  [2]float64{t, 2 * t},
		JitterLiT:  lit.Jitter,
		JitterSG:   2 * t,
	}
}

// Format renders the comparison.
func (s Section4StopAndGo) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4: Leave-in-Time vs Stop-and-Go (T=%.3gs, C=%.3g bit/s, %d hops, session rate 0.1C)\n",
		s.T, s.C, s.N)
	fmt.Fprintf(&b, "  end-to-end delay bound:  LiT %.4gs   Stop-and-Go [%.4gs, %.4gs)\n", s.LiT, s.SGLow, s.SGHigh)
	fmt.Fprintf(&b, "  per-link increase:       LiT %.4gs   Stop-and-Go [%.4gs, %.4gs)\n", s.PerLinkLiT, s.PerLinkSG[0], s.PerLinkSG[1])
	fmt.Fprintf(&b, "  jitter bound:            LiT %.4gs   Stop-and-Go %.4gs\n", s.JitterLiT, s.JitterSG)
	return b.String()
}

// section4Flow is the one session of the Section 4 examples.
func section4Flow(rate, b0, lPkt float64) sched.Flow {
	return sched.Flow{Session: 1, Rate: rate, B0: b0, LMin: lPkt, LMax: lPkt}
}

// section4Route is n hops of capacity c and propagation gamma, each
// carrying the session alone, at d = L/r (no D) under jitter control.
func section4Route(n int, c, gamma, rate float64) []sched.Hop {
	route := make([]sched.Hop, n)
	for i := range route {
		route[i] = sched.Hop{C: c, Gamma: gamma, Ports: []network.SessionPort{{Session: 1, Rate: rate, JitterControl: true}}}
	}
	return route
}

// Section4PGPS checks eq. (15), the lit row's bound at d = L/r,
// against the PGPS bound (the wfq row of sched.Table) on an n-hop route
// with the given link capacity.
type Section4PGPS struct {
	LiT, PGPS float64
}

// RunSection4PGPS computes both bounds for a (rate, b0) session of
// fixed packet length lPkt over n hops of capacity c with propagation
// gamma.
func RunSection4PGPS(rate, b0, lPkt, c, gamma float64, n int) Section4PGPS {
	flows, routes := []sched.Flow{section4Flow(rate, b0, lPkt)}, [][]sched.Hop{section4Route(n, c, gamma, rate)}
	return Section4PGPS{
		LiT:  sched.Lookup("lit").Bound(flows, routes, lPkt, 0)[0].Bound,
		PGPS: sched.Lookup("wfq").Bound(flows, routes, lPkt, 0)[0].Bound,
	}
}
