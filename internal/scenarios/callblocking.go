package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/analytic"
	"leaveintime/internal/rng"
	"leaveintime/internal/system"
	"leaveintime/internal/traffic"
)

// CallBlockingResult measures the Leave-in-Time admission control at
// the connection level: voice calls (32 kbit/s sessions) arrive as a
// Poisson process to one T1 link, hold for an exponential time, and
// are admitted or blocked by admission control procedure 1. The link
// behaves as a loss system with C/r = 48 circuits, so the measured
// blocking probability must track Erlang B — while every carried call
// simultaneously keeps its packet-level delay bound.
type CallBlockingResult struct {
	Duration float64
	Offered  float64 // offered load in Erlangs
	Circuits int

	Arrivals int64
	Blocked  int64
	// Measured is the empirical blocking probability.
	Measured float64
	// ErlangB is the analytic prediction.
	ErlangB float64
	// MaxDelay is the largest end-to-end packet delay of any carried
	// call; DelayBound is eq. 12's bound (identical for every call).
	MaxDelay   float64
	DelayBound float64
	// Removed counts calls fully torn down (state freed end to end).
	Removed int64
}

// RunCallBlocking simulates the call-level dynamics for the given
// offered load (Erlangs) with mean holding time hold seconds.
func RunCallBlocking(duration float64, seed uint64, offered, hold float64) *CallBlockingResult {
	if offered <= 0 || hold <= 0 {
		panic("scenarios: RunCallBlocking needs positive offered load and holding time")
	}
	sys, err := system.New(system.Config{LMax: CellBits})
	if err != nil {
		panic(err)
	}
	trunk, err := sys.AddServer("trunk", T1Rate, PropDelay)
	if err != nil {
		panic(err)
	}
	sim := sys.Sim
	route := []*system.Server{trunk}
	r := rng.New(seed)
	res := &CallBlockingResult{
		Duration: duration,
		Offered:  offered,
		Circuits: int(T1Rate / VoiceRate),
		ErlangB:  analytic.ErlangB(int(T1Rate/VoiceRate), offered),
	}
	// Needed before the first call exists (it sizes the drain grace):
	// eq. 12 for one hop with d = L/r, where alpha = 0.
	bound := admission.Route{
		Hops: []admission.Hop{{C: T1Rate, Gamma: PropDelay, DMax: CellBits / VoiceRate}},
		LMax: CellBits,
	}
	res.DelayBound = bound.DelayBound(CellBits / VoiceRate)

	lambda := offered / hold
	// The drain grace between a call's last emission and its state
	// teardown: comfortably beyond the delay bound.
	grace := 2 * res.DelayBound

	var arrive func()
	arrive = func() {
		now := sim.Now()
		if now < duration {
			sim.Schedule(now+r.Exp(1/lambda), arrive)
		} else {
			return
		}
		res.Arrivals++
		s, _, err := sys.Connect(system.ConnectRequest{Rate: VoiceRate, Route: route})
		if err != nil {
			res.Blocked++
			return
		}
		// Only a carried call draws a source stream, so the source is
		// attached after admission.
		s.SetSource(&traffic.OnOff{T: OnSpacing, Length: CellBits, MeanOn: OnMean, MeanOff: 0.650, Rng: r.Split()})
		end := now + r.Exp(hold)
		s.Start(now, end)
		sim.Schedule(end+grace, func() {
			if d := s.Delays.Max(); d > res.MaxDelay {
				res.MaxDelay = d
			}
			sys.Disconnect(s)
			res.Removed++
		})
	}
	sim.Schedule(r.Exp(1/lambda), arrive)
	sim.RunAll()

	if res.Arrivals > 0 {
		res.Measured = float64(res.Blocked) / float64(res.Arrivals)
	}
	return res
}

// Format renders the comparison.
func (r *CallBlockingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Call blocking under admission control (%.0f s, %d circuits, %.1f Erlangs offered):\n",
		r.Duration, r.Circuits, r.Offered)
	fmt.Fprintf(&b, "  calls: %d arrived, %d blocked, %d torn down\n", r.Arrivals, r.Blocked, r.Removed)
	fmt.Fprintf(&b, "  blocking: measured %.4f, Erlang B %.4f\n", r.Measured, r.ErlangB)
	fmt.Fprintf(&b, "  packet level: max delay %.3f ms, bound %.3f ms (holds for every carried call)\n",
		r.MaxDelay*1e3, r.DelayBound*1e3)
	return b.String()
}
