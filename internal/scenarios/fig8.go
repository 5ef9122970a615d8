package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/stats"
)

// Fig8Poisson are the parameters of the Poisson cross traffic in
// Figures 8, 12 and 13: reserved rate 1472 kbit/s, mean interarrival
// a_P = 0.28804 ms (so 32 kbit/s of each T1 remains for each measured
// ON-OFF session).
const (
	Fig8CrossRate  = 1472e3
	Fig8CrossMean  = 0.28804e-3
	Fig8OnOffAOff  = 0.650
	fig8HistBin    = 0.5e-3 // 0.5 ms delay bins
	fig8HistNBins  = 400    // up to 200 ms
	fig12BufferCap = 64     // buffer distribution support, packets
)

// SessionSummary condenses one measured session's end-to-end behavior.
type SessionSummary struct {
	MaxDelay  float64
	MinDelay  float64
	Jitter    float64
	MeanDelay float64
	Packets   int64
}

func summarize(s *network.Session) SessionSummary {
	return SessionSummary{
		MaxDelay:  s.Delays.Max(),
		MinDelay:  s.Delays.Min(),
		Jitter:    s.Delays.Jitter(),
		MeanDelay: s.Delays.Mean(),
		Packets:   s.Delays.Count(),
	}
}

// Fig8Result carries everything measured in the Figure 8 run, which is
// also the run behind Figures 12 and 13 (buffer distributions).
type Fig8Result struct {
	Duration float64

	// Figure 8: delay distributions with and without jitter control.
	NoCtrl, Ctrl         SessionSummary
	HistNoCtrl, HistCtrl *stats.Histogram

	// Bounds.
	DelayBound        float64 // eq. 12, same for both sessions
	JitterBoundNoCtrl float64
	JitterBoundCtrl   float64

	// Figures 12-13: buffer occupancy (packets) at the first and last
	// nodes of the route, for each session, plus the eq.-derived
	// bounds in packets.
	BufNoCtrlN1, BufNoCtrlN5 *stats.Discrete
	BufCtrlN1, BufCtrlN5     *stats.Discrete
	BufBoundNoCtrlN1         float64
	BufBoundNoCtrlN5         float64
	BufBoundCtrlN1           float64
	BufBoundCtrlN5           float64
}

// RunFig8Observed reproduces Figures 8, 12 and 13: the CROSS
// configuration (crossDoc) with two five-hop ON-OFF sessions, one with
// and one without delay jitter control, and Poisson cross traffic on
// every one-hop route. The paper runs 600 s. When reg is non-nil every
// layer of the run counts into it; the figure output is bit-identical
// with and without instrumentation.
func RunFig8Observed(duration float64, seed uint64, reg *metrics.Registry) *Fig8Result {
	run := prepare(crossDoc(duration, seed), reg)
	no, ctrl := run.Conns()[0], run.Conns()[1]
	histNo := no.Sess.MeasureHistogram(fig8HistBin, fig8HistNBins)
	histCtrl := ctrl.Sess.MeasureHistogram(fig8HistBin, fig8HistNBins)

	servers := run.System().Servers()
	first, last := servers[0].Port, servers[NumNodes-1].Port
	probeNoN1 := first.TrackBuffer(no.Sess.ID)
	probeNoN5 := last.TrackBuffer(no.Sess.ID)
	probeCtN1 := first.TrackBuffer(ctrl.Sess.ID)
	probeCtN5 := last.TrackBuffer(ctrl.Sess.ID)
	// The occupancy support is known from the figure's rendering cap
	// (fig12BufferCap packets): preallocate the distributions so the
	// per-arrival sampling path never grows a slice mid-run.
	for _, probe := range []*network.BufferProbe{probeNoN1, probeNoN5, probeCtN1, probeCtN5} {
		probe.Dist.Reserve(fig12BufferCap)
	}

	run.Start()
	run.RunSlice(duration)

	bNo, bYes := no.Bounds, ctrl.Bounds
	return &Fig8Result{
		Duration:          duration,
		NoCtrl:            summarize(no.Sess),
		Ctrl:              summarize(ctrl.Sess),
		HistNoCtrl:        histNo,
		HistCtrl:          histCtrl,
		DelayBound:        bNo.DelayBound,
		JitterBoundNoCtrl: bNo.JitterBound,
		JitterBoundCtrl:   bYes.JitterBound,
		BufNoCtrlN1:       &probeNoN1.Dist,
		BufNoCtrlN5:       &probeNoN5.Dist,
		BufCtrlN1:         &probeCtN1.Dist,
		BufCtrlN5:         &probeCtN5.Dist,
		BufBoundNoCtrlN1:  bNo.BufferBoundBits[0] / CellBits,
		BufBoundNoCtrlN5:  bNo.BufferBoundBits[4] / CellBits,
		BufBoundCtrlN1:    bYes.BufferBoundBits[0] / CellBits,
		BufBoundCtrlN5:    bYes.BufferBoundBits[4] / CellBits,
	}
}

// Format renders the Figure 8 summary and the two delay distributions.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: delay distribution of two ON-OFF five-hop sessions, Poisson cross traffic, %.0f s run\n", r.Duration)
	fmt.Fprintf(&b, "  without jitter control: max %.2f ms  jitter %.2f ms (bound %.2f ms)  mean %.2f ms  pkts %d\n",
		r.NoCtrl.MaxDelay*1e3, r.NoCtrl.Jitter*1e3, r.JitterBoundNoCtrl*1e3, r.NoCtrl.MeanDelay*1e3, r.NoCtrl.Packets)
	fmt.Fprintf(&b, "  with    jitter control: max %.2f ms  jitter %.2f ms (bound %.2f ms)  mean %.2f ms  pkts %d\n",
		r.Ctrl.MaxDelay*1e3, r.Ctrl.Jitter*1e3, r.JitterBoundCtrl*1e3, r.Ctrl.MeanDelay*1e3, r.Ctrl.Packets)
	fmt.Fprintf(&b, "  end-to-end delay bound (both): %.2f ms\n", r.DelayBound*1e3)
	fmt.Fprintf(&b, "%12s %14s %14s\n", "delay(ms)", "P(no ctrl)", "P(ctrl)")
	for i := 0; i < r.HistNoCtrl.NumBins(); i++ {
		pNo := float64(r.HistNoCtrl.BinCount(i))
		pCt := float64(r.HistCtrl.BinCount(i))
		if pNo == 0 && pCt == 0 {
			continue
		}
		fmt.Fprintf(&b, "%12.2f %14.6f %14.6f\n",
			(float64(i)+0.5)*r.HistNoCtrl.BinWidth*1e3,
			pNo/float64(r.HistNoCtrl.Count()),
			pCt/float64(r.HistCtrl.Count()))
	}
	return b.String()
}

// FormatBuffers renders the Figures 12-13 view of the same run.
func (r *Fig8Result) FormatBuffers() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 12-13: buffer space distributions (packets), %.0f s run\n", r.Duration)
	writeBuf := func(name string, d *stats.Discrete, bound float64) {
		fmt.Fprintf(&b, "  %-28s max %2d  bound %6.2f  P(<=k):", name, d.Max(), bound)
		for k, p := range bufferCDF(d) {
			fmt.Fprintf(&b, " %d:%.4f", k, p)
		}
		fmt.Fprintln(&b)
	}
	writeBuf("no ctrl, node 1", r.BufNoCtrlN1, r.BufBoundNoCtrlN1)
	writeBuf("no ctrl, node 5", r.BufNoCtrlN5, r.BufBoundNoCtrlN5)
	writeBuf("jitter ctrl, node 1", r.BufCtrlN1, r.BufBoundCtrlN1)
	writeBuf("jitter ctrl, node 5", r.BufCtrlN5, r.BufBoundCtrlN5)
	return b.String()
}

// bufferCDF is P(occupancy <= k) for k from 0 to the largest occupancy
// seen, cut at fig12BufferCap: what Figures 12-13 plot.
func bufferCDF(d *stats.Discrete) []float64 {
	var cdf []float64
	for k := 0; k <= d.Max() && k < fig12BufferCap; k++ {
		cdf = append(cdf, d.CDF(k))
	}
	return cdf
}
