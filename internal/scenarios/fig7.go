package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/metrics"
)

// Fig7Row is one point of Figure 7: the maximum delay and delay jitter
// of a five-hop ON-OFF session in the MIX configuration, as a function
// of the sources' mean OFF period.
type Fig7Row struct {
	AOff        float64 // mean OFF period, s
	Utilization float64 // measured busy fraction of the first link
	MaxDelay    float64 // max end-to-end delay of the measured session, s
	Jitter      float64 // max - min end-to-end delay, s
	MeanDelay   float64
	Packets     int64
	DelayBound  float64 // eq. 12 with D_ref_max = T (b0 = one packet)
	JitterBound float64 // no-jitter-control bound
}

// Fig7Result is the full sweep.
type Fig7Result struct {
	Duration float64
	Rows     []Fig7Row
}

// RunFig7 reproduces Figure 7: the MIX traffic configuration with every
// session an ON-OFF source of the given mean OFF period, admission
// control procedure 1 with one class (d = L/r), no jitter control, a
// run of the given duration (the paper uses 300 s). The measured
// session is the first five-hop (a-j) session.
//
// The sweep points are independent simulations (each with its own
// simulator and random streams), so they run concurrently; results are
// deterministic in (duration, seed) regardless of parallelism.
func RunFig7(duration float64, seed uint64) Fig7Result {
	return RunFig7Observed(duration, seed, nil)
}

// RunFig7Observed is RunFig7 with telemetry: registries[i], when
// non-nil, observes sweep point i (one registry per point — the points
// run concurrently). A nil or short slice leaves the remaining points
// uninstrumented; results are identical either way.
func RunFig7Observed(duration float64, seed uint64, registries []*metrics.Registry) Fig7Result {
	res := Fig7Result{Duration: duration, Rows: make([]Fig7Row, len(AOffValues))}
	forEachPoint(len(AOffValues), func(i int) {
		var reg *metrics.Registry
		if i < len(registries) {
			reg = registries[i]
		}
		res.Rows[i] = runFig7Point(AOffValues[i], duration, seed, reg)
	})
	return res
}

func runFig7Point(aOff, duration float64, seed uint64, reg *metrics.Registry) Fig7Row {
	run := prepare(mixDoc(aOff, duration, seed), reg)
	util := &run.System().Servers()[0].Port.Util
	util.Start(0)
	run.Start()
	run.RunSlice(duration)

	// The measured session is the first a-j session.
	measured := run.Conns()[0]
	return Fig7Row{
		AOff:        aOff,
		Utilization: util.Value(run.Now()),
		MaxDelay:    measured.Sess.Delays.Max(),
		Jitter:      measured.Sess.Delays.Jitter(),
		MeanDelay:   measured.Sess.Delays.Mean(),
		Packets:     measured.Sess.Delays.Count(),
		DelayBound:  measured.Bounds.DelayBound,
		JitterBound: measured.Bounds.JitterBound,
	}
}

// Format renders the sweep as an aligned text table.
func (r Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: five-hop ON-OFF session, MIX configuration, %.0f s run\n", r.Duration)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %12s %8s %12s %12s\n",
		"aOFF(ms)", "util(%)", "maxDelay(ms)", "jitter(ms)", "mean(ms)", "pkts", "Dbound(ms)", "Jbound(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.1f %8.1f %12.2f %12.2f %12.2f %8d %12.2f %12.2f\n",
			row.AOff*1e3, row.Utilization*100, row.MaxDelay*1e3, row.Jitter*1e3,
			row.MeanDelay*1e3, row.Packets, row.DelayBound*1e3, row.JitterBound*1e3)
	}
	return b.String()
}
