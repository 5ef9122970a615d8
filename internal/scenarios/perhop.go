package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/trace"
)

// PerHopResult decomposes the Figure 8 scenario's end-to-end delay hop
// by hop, using packet tracing: for each node, the time from a packet's
// arrival to the start of its transmission (regulator holding plus
// queueing) and to the end of its transmission. It makes the mechanism
// of delay jitter control visible: the regulators convert downstream
// queueing variance into deterministic holding, so the jitter-
// controlled session's per-hop times are nearly constant while the
// uncontrolled session's wander.
type PerHopResult struct {
	Duration float64
	// NoCtrl and Ctrl hold per-hop statistics for the two sessions.
	NoCtrl, Ctrl []trace.PerHopDelay
}

// RunPerHop runs the Figure 8 CROSS scenario with tracing enabled and
// reduces the trace to per-hop delay statistics.
func RunPerHop(duration float64, seed uint64) *PerHopResult {
	run := prepare(crossDoc(duration, seed), nil)
	rec := &trace.Recorder{}
	run.System().Net.Tracer = rec
	run.Start()
	run.RunSlice(duration)

	return &PerHopResult{
		Duration: duration,
		NoCtrl:   rec.PerHopDelays(run.Conns()[0].Sess.ID),
		Ctrl:     rec.PerHopDelays(run.Conns()[1].Sess.ID),
	}
}

// Format renders the decomposition.
func (r *PerHopResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-hop delay decomposition of the Figure 8 scenario (%.0f s run)\n", r.Duration)
	write := func(name string, hops []trace.PerHopDelay) {
		fmt.Fprintf(&b, "%s:\n", name)
		fmt.Fprintf(&b, "%6s %10s %26s %26s\n", "hop", "port", "arrive->start (ms)", "arrive->end (ms)")
		fmt.Fprintf(&b, "%6s %10s %12s %13s %12s %13s\n", "", "", "mean", "max", "mean", "max")
		for _, h := range hops {
			fmt.Fprintf(&b, "%6d %10s %12.3f %13.3f %12.3f %13.3f\n",
				h.Hop+1, h.Port,
				h.Queue.Mean()*1e3, h.Queue.Max()*1e3,
				h.Transit.Mean()*1e3, h.Transit.Max()*1e3)
		}
	}
	write("without jitter control", r.NoCtrl)
	write("with jitter control (regulator holding included)", r.Ctrl)
	return b.String()
}
