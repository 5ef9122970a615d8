// Package calculus implements the deterministic network calculus of
// Cruz ("A Calculus for Network Delay", IEEE Trans. Information Theory
// 1991, parts I and II) — references [2, 3] of the Leave-in-Time
// paper. Session traffic is characterized by an arrival curve; the
// simplest is the burstiness constraint (sigma, rho) — at most
// sigma + rho*t bits in any interval of length t, "in principle very
// similar to a token bucket filter" as the paper notes — which is the
// one-segment Curve TokenBucket(rho, sigma). The calculus propagates
// these curves through network elements and yields worst-case delay and
// backlog bounds for FCFS multiplexers — the methodology the paper's
// Section 4 contrasts with Leave-in-Time's per-session isolation.
package calculus

import (
	"errors"
	"fmt"
)

// FCFSServer is a work-conserving FCFS multiplexer of the given
// capacity (bits/s) fed by the aggregate arrival curve of all its
// inputs.
type FCFSServer struct {
	// C is the link capacity, bits/s.
	C float64
	// LMax is the largest packet, bits (non-preemption term).
	LMax float64
}

// ErrUnstable is returned when the aggregate rate reaches the capacity,
// where no finite worst-case bound exists.
var ErrUnstable = errors.New("calculus: aggregate rate >= capacity")

// DelayBound returns the worst-case delay of any bit through the FCFS
// server fed by the aggregate arrival curve: the horizontal deviation
// of the curve against the server's constant rate, plus one
// maximum-length packet time for a non-preemptive packetized server.
// For the token bucket (sigma, rho) that is sigma/C + LMax/C. Stability
// requires a final slope below C.
func (s FCFSServer) DelayBound(agg Curve) (float64, error) {
	if rho := agg.FinalSlope(); rho >= s.C {
		return 0, fmt.Errorf("%w: rho %g, C %g", ErrUnstable, rho, s.C)
	}
	return rateHorizontalDeviation(agg, s.C) + s.LMax/s.C, nil
}

// FlowBacklogBound returns the per-flow backlog bound (in bits) for a
// flow af sharing this FIFO server with cross traffic ax, including
// the +LMax packetization term: an observed queue holds the packet in
// transmission until its last bit leaves.
func (s FCFSServer) FlowBacklogBound(w *Ws, af, ax Curve) (float64, error) {
	fluid, err := w.FlowBacklogBound(af, ax, s.C)
	if err != nil {
		return 0, err
	}
	return fluid + s.LMax, nil
}

// TandemHop is one hop of a feed-forward tandem: a FIFO server, the
// cross-traffic arrival curve joining the flow there (assumed fresh at
// each hop, the standard feed-forward assumption), and the outgoing
// link's propagation delay, seconds.
type TandemHop struct {
	Server FCFSServer
	Cross  Curve
	Gamma  float64
}

// TandemDelayBound bounds a tagged flow's end-to-end delay across the
// hops: at each hop the flow's current curve is summed with the local
// cross traffic, the hop's FIFO delay bound and propagation delay are
// accrued, and the flow curve is advanced by that delay bound before
// the next hop.
func TandemDelayBound(flow Curve, hops []TandemHop) (float64, error) {
	total := 0.0
	cur := flow
	for i, h := range hops {
		d, err := h.Server.DelayBound(Add(cur, h.Cross))
		if err != nil {
			return 0, fmt.Errorf("hop %d: %w", i, err)
		}
		total += d + h.Gamma
		cur = cur.Delayed(d)
	}
	return total, nil
}
