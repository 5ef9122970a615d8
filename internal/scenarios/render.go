package scenarios

import (
	"encoding/json"
	"fmt"

	"leaveintime/internal/plot"
	"leaveintime/internal/stats"
)

// This file provides the presentation layers shared by cmd/litsim: text
// plots of the distribution figures and JSON views of every result for
// external tooling.

// Plot renders the three curves of a Figures 9-11 experiment as a
// log-scale CCDF chart (the paper's presentation).
func (r *DistResult) Plot() string {
	p := &plot.Plot{
		Title:  fmt.Sprintf("P(delay > d), log scale (rho=%.2f, shift=%.2f ms)", r.Rho, (r.Beta+r.Alpha)*1e3),
		XLabel: "d (ms)",
		LogY:   true,
		YMin:   1e-6,
		Width:  76,
		Height: 22,
	}
	var mx, my []float64
	for _, pt := range r.Measured {
		if pt.P > 0 {
			mx = append(mx, pt.X*1e3)
			my = append(my, pt.P)
		}
	}
	p.Add(plot.Series{Name: "measured", Marker: '*', X: mx, Y: my})
	var ax, ay []float64
	for _, pt := range r.Analytic {
		if pt.Y > 1e-7 {
			ax = append(ax, pt.X*1e3)
			ay = append(ay, pt.Y)
		}
	}
	p.Add(plot.Series{Name: "analytic bound (ineq. 16 + M/D/1)", Marker: '+', X: ax, Y: ay})
	var sx, sy []float64
	for _, pt := range r.SimRef {
		if pt.P > 0 {
			sx = append(sx, pt.X*1e3)
			sy = append(sy, pt.P)
		}
	}
	p.Add(plot.Series{Name: "simulated reference bound", Marker: 'o', X: sx, Y: sy})
	return p.Render()
}

// Plot renders the Figure 8 delay distributions of the two sessions.
func (r *Fig8Result) Plot() string {
	p := &plot.Plot{
		Title:  "Figure 8: delay distribution, with and without jitter control",
		XLabel: "delay (ms)",
		YLabel: "P(delay in bin)",
		Width:  76,
		Height: 20,
	}
	add := func(name string, marker rune, h *stats.Histogram) {
		var xs, ys []float64
		n := float64(h.Count())
		for i := 0; i < h.NumBins(); i++ {
			c := h.BinCount(i)
			if c == 0 {
				continue
			}
			xs = append(xs, (float64(i)+0.5)*h.BinWidth*1e3)
			ys = append(ys, float64(c)/n)
		}
		p.Add(plot.Series{Name: name, Marker: marker, X: xs, Y: ys})
	}
	add("without jitter control", '*', r.HistNoCtrl)
	add("with jitter control", '+', r.HistCtrl)
	return p.Render()
}

// JSON serializes any experiment result into indented JSON. All result
// types carry exported fields (histograms are rendered as bin arrays),
// so external plotting tools can consume litsim -json output directly.
func JSON(result any) ([]byte, error) {
	return json.MarshalIndent(jsonView(result), "", "  ")
}

func jsonView(result any) any {
	switch r := result.(type) {
	case *Fig8Result:
		return map[string]any{
			"duration_s":           r.Duration,
			"no_control":           r.NoCtrl,
			"with_control":         r.Ctrl,
			"delay_bound_s":        r.DelayBound,
			"jitter_bound_noctl_s": r.JitterBoundNoCtrl,
			"jitter_bound_ctl_s":   r.JitterBoundCtrl,
			"hist_no_control":      histJSON(r.HistNoCtrl),
			"hist_with_control":    histJSON(r.HistCtrl),
			"buffer_bounds_packets": map[string]float64{
				"noctl_node1": r.BufBoundNoCtrlN1,
				"noctl_node5": r.BufBoundNoCtrlN5,
				"ctl_node1":   r.BufBoundCtrlN1,
				"ctl_node5":   r.BufBoundCtrlN5,
			},
			"buffer_cdf": map[string][]float64{
				"noctl_node1": bufferCDF(r.BufNoCtrlN1),
				"noctl_node5": bufferCDF(r.BufNoCtrlN5),
				"ctl_node1":   bufferCDF(r.BufCtrlN1),
				"ctl_node5":   bufferCDF(r.BufCtrlN5),
			},
		}
	case *DistResult:
		return map[string]any{
			"duration_s": r.Duration,
			"rho":        r.Rho,
			"beta_s":     r.Beta,
			"alpha_s":    r.Alpha,
			"summary":    r.Summary,
			"measured":   r.Measured,
			"analytic":   r.Analytic,
			"sim_ref":    r.SimRef,
		}
	default:
		return result
	}
}

func histJSON(h *stats.Histogram) map[string]any {
	bins := map[string]int64{}
	for i := 0; i < h.NumBins(); i++ {
		if c := h.BinCount(i); c != 0 {
			bins[fmt.Sprintf("%d", i)] = c
		}
	}
	return map[string]any{"count": h.Count(), "bin_width_s": h.BinWidth, "bins": bins}
}
