package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/analytic"
	"leaveintime/internal/config"
	"leaveintime/internal/rng"
	"leaveintime/internal/stats"
	"leaveintime/internal/traffic"
)

// Parameters of Figures 9-11 (Section 3).
const (
	Fig9SessionMean  = 1.5143e-3 // a_P of the measured Poisson session
	Fig9SessionRate  = 400e3     // reserved rate (utilization 0.7)
	Fig9CrossMean    = 0.3929e-3
	Fig9CrossRate    = 1136e3
	Fig10SessionMean = 40e-3 // utilization 0.33 at 32 kbit/s
	Fig10SessionRate = 32e3
	Fig11DetPerHop   = 47 // 47 x 32 kbit/s Deterministic cross sessions

	distHistBin   = 0.25e-3
	distHistNBins = 1600 // up to 400 ms
)

// DistResult is the outcome of a delay-distribution experiment
// (Figures 9, 10, 11): the measured end-to-end tail distribution of a
// five-hop Poisson session against two upper bounds obtained from
// ineq. (16) — one analytic (M/D/1) and one from a simulated reference
// server fed the same arrival stream.
type DistResult struct {
	Duration    float64
	Rho         float64 // reference-server utilization of the session
	Beta, Alpha float64 // the ineq. (16) shift is Beta + Alpha

	// Measured is the empirical P(delay > d) of the session in the
	// network.
	Measured []stats.CCDFPoint
	// Analytic is the analytic bound P(D_ref > d - beta - alpha) from
	// the M/D/1 sojourn distribution.
	Analytic []stats.Point
	// SimRef is the "simulated upper bound": the empirical
	// reference-server tail, shifted right by beta + alpha.
	SimRef []stats.CCDFPoint

	Summary SessionSummary
}

type crossKind int

const (
	crossPoisson1136 crossKind = iota
	crossPoisson1472
	crossDeterministic47
)

// RunFig9 reproduces Figure 9: Poisson session with a_P = 1.5143 ms and
// rate 400 kbit/s (utilization 0.7), Poisson cross traffic of
// 1136 kbit/s. The paper runs 600 s.
func RunFig9(duration float64, seed uint64) *DistResult {
	return runDist(Fig9SessionMean, Fig9SessionRate, crossPoisson1136, duration, seed)
}

// RunFig10 reproduces Figure 10: Poisson session with a_P = 40 ms and
// rate 32 kbit/s (utilization 0.33), Poisson cross traffic of
// 1472 kbit/s.
func RunFig10(duration float64, seed uint64) *DistResult {
	return runDist(Fig10SessionMean, Fig10SessionRate, crossPoisson1472, duration, seed)
}

// RunFig11 reproduces Figure 11: the Figure 10 session with the cross
// traffic replaced by 47 Deterministic 32 kbit/s sessions per hop.
func RunFig11(duration float64, seed uint64) *DistResult {
	return runDist(Fig10SessionMean, Fig10SessionRate, crossDeterministic47, duration, seed)
}

// distDoc is the document of Figures 9-11: a five-hop Poisson session
// of mean interarrival mean at the reserved rate, then the cross
// traffic on every one-hop route.
func distDoc(mean, rate float64, cross crossKind, duration float64, seed uint64) *config.Scenario {
	sc := fig6(duration, seed)
	addSession(sc, 1, NumNodes, rate, poisson(mean))
	for _, cr := range CrossRoutes {
		switch cross {
		case crossPoisson1136:
			addSession(sc, cr.Entrance, cr.Exit, Fig9CrossRate, poisson(Fig9CrossMean))
		case crossPoisson1472:
			addSession(sc, cr.Entrance, cr.Exit, Fig8CrossRate, poisson(Fig8CrossMean))
		case crossDeterministic47:
			for range Fig11DetPerHop {
				addSession(sc, cr.Entrance, cr.Exit, VoiceRate,
					config.Source{Kind: "deterministic", Interval: DetInterval, Length: CellBits})
			}
		}
	}
	return sc
}

func runDist(mean, rate float64, cross crossKind, duration float64, seed uint64) *DistResult {
	run := prepare(distDoc(mean, rate, cross, duration, seed), nil)

	// The measured session's source is tapped: the same packet stream
	// is fed to a simulated reference server of the reserved rate,
	// producing the empirical D_ref distribution for the "simulated
	// upper bound" curve. r is the document's stream drawn again: its
	// first split is the measured session's, and the splits after it
	// give Figure 11's deterministic sessions their phases.
	r := rng.New(seed)
	tap := &refTap{
		src:  &traffic.Poisson{Mean: mean, Length: CellBits, Rng: r.Split()},
		ref:  analytic.NewRefServer(rate),
		hist: stats.NewHistogram(distHistBin, distHistNBins),
	}
	measured := run.Conns()[0]
	sess, b := measured.Sess, measured.Bounds
	sess.SetSource(tap)
	hist := sess.MeasureHistogram(distHistBin, distHistNBins)
	for i, c := range run.Conns() {
		at := 0.0
		if i > 0 && cross == crossDeterministic47 {
			// Random phase so the 47 deterministic streams do not
			// arrive in lockstep.
			at = r.Split().Float64() * DetInterval
		}
		c.Sess.Start(at, duration)
	}
	run.RunSlice(duration)

	rt := b.Route
	shift := rt.Beta() + rt.Alpha
	md1 := analytic.MD1{Lambda: 1 / mean, Service: CellBits / rate}

	res := &DistResult{
		Duration: duration,
		Rho:      md1.Rho(),
		Beta:     rt.Beta(),
		Alpha:    rt.Alpha,
		Measured: hist.CCDF(),
		Summary:  summarize(sess),
	}
	// Analytic bound curve on the measured support plus headroom.
	maxD := sess.Delays.Max() + shift + 20e-3
	for d := 0.0; d <= maxD; d += distHistBin * 4 {
		res.Analytic = append(res.Analytic, stats.Point{X: d, Y: md1.SojournTail(d - shift)})
	}
	// Simulated reference bound: shift the empirical D_ref tail.
	for _, p := range tap.hist.CCDF() {
		res.SimRef = append(res.SimRef, stats.CCDFPoint{X: p.X + shift, P: p.P})
	}
	return res
}

// refTap tees a source's packet stream into a reference server,
// accumulating the per-packet reference delays.
type refTap struct {
	src   traffic.Source
	ref   *analytic.RefServer
	hist  *stats.Histogram
	clock float64
}

// Next implements traffic.Source.
func (t *refTap) Next() (float64, float64) {
	gap, l := t.src.Next()
	t.clock += gap
	_, d := t.ref.Arrive(t.clock, l)
	t.hist.Add(d) // D_ref = W_i - t_i includes the service time
	return gap, l
}

// Format renders the three curves in aligned columns (delay in ms,
// probabilities suitable for a log-scale plot).
func (r *DistResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Delay distribution experiment (%.0f s run): rho=%.2f beta=%.2fms alpha=%.2fms shift=%.2fms\n",
		r.Duration, r.Rho, r.Beta*1e3, r.Alpha*1e3, (r.Beta+r.Alpha)*1e3)
	fmt.Fprintf(&b, "  session: max %.2f ms, mean %.2f ms, %d packets\n",
		r.Summary.MaxDelay*1e3, r.Summary.MeanDelay*1e3, r.Summary.Packets)
	fmt.Fprintf(&b, "%12s %14s | %12s %14s | %12s %14s\n",
		"d(ms)", "P(D>d) meas", "d(ms)", "analytic", "d(ms)", "sim-ref")
	n := len(r.Measured)
	if len(r.Analytic) > n {
		n = len(r.Analytic)
	}
	if len(r.SimRef) > n {
		n = len(r.SimRef)
	}
	for i := 0; i < n; i++ {
		line := [3]string{"", "", ""}
		if i < len(r.Measured) && r.Measured[i].P > 0 {
			line[0] = fmt.Sprintf("%12.2f %14.3g", r.Measured[i].X*1e3, r.Measured[i].P)
		}
		if i < len(r.Analytic) && r.Analytic[i].Y > 1e-12 {
			line[1] = fmt.Sprintf("%12.2f %14.3g", r.Analytic[i].X*1e3, r.Analytic[i].Y)
		}
		if i < len(r.SimRef) && r.SimRef[i].P > 0 {
			line[2] = fmt.Sprintf("%12.2f %14.3g", r.SimRef[i].X*1e3, r.SimRef[i].P)
		}
		if line[0] == "" && line[1] == "" && line[2] == "" {
			continue
		}
		fmt.Fprintf(&b, "%-27s | %-27s | %-27s\n", line[0], line[1], line[2])
	}
	return b.String()
}
