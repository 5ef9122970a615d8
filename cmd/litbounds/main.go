// Command litbounds computes the Leave-in-Time service commitments
// (eqs. 12-17 of the paper) for a session described on the command
// line, without running any simulation — demonstrating the paper's
// isolation property: the bounds depend only on the session's own
// declaration.
//
// Usage:
//
//	litbounds -rate 32000 -b0 424 -lmax 424 -hops 5 -capacity 1536000 \
//	          -gamma 0.001 -d 0.01325 [-jitterctrl] \
//	          [-calculus -cross-rate 1280000 -cross-b0 16960]
//
// -d is the per-node service parameter d_max (defaults to lmax/rate,
// the one-class case). Output: beta, the end-to-end delay bound, the
// jitter bound for the selected mode, and per-node buffer bounds.
//
// -calculus appends the network-calculus comparison the paper's §4
// draws: the same session bounded as an arrival curve through a tandem
// of FCFS servers sharing each hop with -cross-rate/-cross-b0 of cross
// traffic. Unlike the Leave-in-Time bounds above it, the FCFS figures
// depend on everyone's burstiness — the methodological contrast the
// isolation property removes.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	lit "leaveintime"
)

// boundsConfig is everything the renderer needs — the flag set in
// struct form, so tests can pin outputs without running the binary.
type boundsConfig struct {
	Rate, B0, LMax, LMin float64
	Hops                 int
	Capacity, Gamma, D   float64
	JitterCtrl           bool
	Calculus             bool
	CrossRate, CrossB0   float64
}

// validate refuses a configuration the bound formulas are not defined
// on — they divide by rate and capacity and index the route by hop — so
// a bad flag is one line on stderr, not a panic or an Inf/NaN "bound".
// The session and its hops are held to the rule System.Connect applies,
// so litbounds prints bounds only for a declaration the library admits
// to the network.
func (cfg boundsConfig) validate() error {
	if cfg.Hops < 1 {
		return fmt.Errorf("-hops must be at least 1, got %d", cfg.Hops)
	}
	for _, f := range []struct {
		name string
		v    float64
		sign string
	}{
		{"b0", cfg.B0, "positive"}, {"d", cfg.D, "nonnegative"},
		{"cross-rate", cfg.CrossRate, "nonnegative"}, {"cross-b0", cfg.CrossB0, "nonnegative"},
	} {
		// NaN fails the first comparison too.
		if !(f.v >= 0) || math.IsInf(f.v, 0) || (f.v == 0 && f.sign == "positive") {
			return fmt.Errorf("-%s must be %s and finite, got %g", f.name, f.sign, f.v)
		}
	}
	return lit.SystemConfig{LMax: cfg.LMax}.Check("hop", cfg.Capacity, cfg.Gamma,
		lit.ConnectRequest{Rate: cfg.Rate, B0: cfg.B0, LMax: cfg.LMax, LMin: cfg.LMin})
}

// render computes and formats the bounds of a valid configuration.
// Pure: same config, same string.
func render(cfg boundsConfig) string {
	var b strings.Builder
	if cfg.LMin == 0 {
		cfg.LMin = cfg.LMax
	}
	dMax, alpha := cfg.D, 0.0
	if dMax == 0 {
		dMax = cfg.LMax / cfg.Rate
	} else {
		// With a fixed d, alpha = d - Lmin/r maximized over lengths.
		alpha = max(dMax-cfg.LMin/cfg.Rate, dMax-cfg.LMax/cfg.Rate)
	}
	hopList := make([]lit.Hop, cfg.Hops)
	for i := range hopList {
		hopList[i] = lit.Hop{C: cfg.Capacity, Gamma: cfg.Gamma, DMax: dMax}
	}
	route := lit.Route{Hops: hopList, LMax: cfg.LMax, Alpha: alpha}
	dRef := cfg.B0 / cfg.Rate
	delay, jitter, buffer := route.Commitments(cfg.Rate, cfg.B0, cfg.LMin, cfg.JitterCtrl)

	fmt.Fprintf(&b, "session: rate %.6g bit/s, token bucket (%.6g, %.6g), %d hops of %.6g bit/s\n",
		cfg.Rate, cfg.Rate, cfg.B0, cfg.Hops, cfg.Capacity)
	fmt.Fprintf(&b, "  D_ref_max (eq. 14)        %12.6g s\n", dRef)
	fmt.Fprintf(&b, "  beta (eq. 13)             %12.6g s\n", route.Beta())
	fmt.Fprintf(&b, "  alpha                     %12.6g s\n", alpha)
	fmt.Fprintf(&b, "  end-to-end delay (eq. 12) %12.6g s\n", delay)
	if cfg.JitterCtrl {
		fmt.Fprintf(&b, "  jitter bound (eq. 17)     %12.6g s (with jitter control)\n", jitter)
	} else {
		fmt.Fprintf(&b, "  jitter bound              %12.6g s (no jitter control)\n", jitter)
	}
	for n, q := range buffer {
		fmt.Fprintf(&b, "  buffer bound, node %d      %12.6g bits (%.2f packets of lmax)\n", n+1, q, q/cfg.LMax)
	}
	if cfg.Calculus {
		renderCalculus(&b, cfg)
	}
	return b.String()
}

// renderCalculus appends the FCFS network-calculus section: the
// session as a piecewise-linear arrival curve through a tandem of FCFS
// hops, each shared with the configured cross-traffic aggregate.
func renderCalculus(b *strings.Builder, cfg boundsConfig) {
	flow := lit.TokenBucketCurve(cfg.Rate, cfg.B0)
	cross := lit.TokenBucketCurve(cfg.CrossRate, cfg.CrossB0)
	srv := lit.FCFSServer{C: cfg.Capacity, LMax: cfg.LMax}
	hops := make([]lit.TandemHop, cfg.Hops)
	for i := range hops {
		hops[i] = lit.TandemHop{Server: srv, Cross: cross, Gamma: cfg.Gamma}
	}
	fmt.Fprintf(b, "network calculus (FCFS, cross traffic (%.6g, %.6g) per hop):\n",
		cfg.CrossRate, cfg.CrossB0)

	agg := lit.SumCurves(flow, cross)
	d1, err := srv.DelayBound(agg)
	if err != nil {
		fmt.Fprintf(b, "  %v\n", err)
		return
	}
	fmt.Fprintf(b, "  FCFS delay, one hop       %12.6g s\n", d1)
	if busy, err := lit.BusyPeriodBound(agg, cfg.Capacity); err == nil {
		fmt.Fprintf(b, "  busy period, one hop      %12.6g s (any work-conserving order)\n", busy)
	}
	var ws lit.CurveWs
	if q, err := srv.FlowBacklogBound(&ws, flow, cross); err == nil {
		fmt.Fprintf(b, "  flow backlog, one hop     %12.6g bits (%.2f packets of lmax)\n", q, q/cfg.LMax)
	}
	de2e, err := lit.TandemDelayBound(flow, hops)
	if err != nil {
		fmt.Fprintf(b, "  tandem: %v\n", err)
		return
	}
	fmt.Fprintf(b, "  FCFS delay, end to end    %12.6g s\n", de2e)
}

func main() {
	var cfg boundsConfig
	flag.Float64Var(&cfg.Rate, "rate", 32e3, "reserved rate r_s, bits/s")
	flag.Float64Var(&cfg.B0, "b0", 424, "token bucket depth b_0, bits (session conforms to (rate, b0))")
	flag.Float64Var(&cfg.LMax, "lmax", 424, "session and network maximum packet length, bits")
	flag.Float64Var(&cfg.LMin, "lmin", 0, "session minimum packet length, bits (default lmax)")
	flag.IntVar(&cfg.Hops, "hops", 5, "number of Leave-in-Time servers on the route")
	flag.Float64Var(&cfg.Capacity, "capacity", 1536e3, "link capacity C, bits/s (all hops)")
	flag.Float64Var(&cfg.Gamma, "gamma", 1e-3, "link propagation delay, seconds (all hops)")
	flag.Float64Var(&cfg.D, "d", 0, "per-node d_max, seconds (default lmax/rate)")
	flag.BoolVar(&cfg.JitterCtrl, "jitterctrl", false, "session uses delay jitter control")
	flag.BoolVar(&cfg.Calculus, "calculus", false, "append the FCFS network-calculus comparison")
	flag.Float64Var(&cfg.CrossRate, "cross-rate", 0, "calculus: aggregate cross-traffic rate per hop, bits/s")
	flag.Float64Var(&cfg.CrossB0, "cross-b0", 0, "calculus: aggregate cross-traffic burst per hop, bits")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "litbounds:", err)
		os.Exit(2)
	}
	fmt.Print(render(cfg))
}
