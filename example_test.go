package lit_test

import (
	"fmt"

	lit "leaveintime"
	"leaveintime/internal/analytic"
)

// Build a two-hop network, reserve a token-bucket session, and read the
// service commitments the network grants at establishment time.
func ExampleSystem_Connect() {
	sys, err := lit.NewSystem(lit.SystemConfig{LMax: 8000})
	if err != nil {
		panic(err)
	}
	a, err := sys.AddServer("A", 10e6, 0.5e-3)
	if err != nil {
		panic(err)
	}
	b, err := sys.AddServer("B", 10e6, 0.5e-3)
	if err != nil {
		panic(err)
	}

	_, bounds, err := sys.Connect(lit.ConnectRequest{
		Rate:  1e6,
		Route: []*lit.Server{a, b},
		LMax:  8000,
		B0:    24000, // conforms to a (1 Mbit/s, 3-packet) bucket
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("delay bound %.1f ms\n", bounds.DelayBound*1e3)
	fmt.Printf("jitter bound %.1f ms\n", bounds.JitterBound*1e3)
	// Output:
	// delay bound 34.6 ms
	// jitter bound 32.0 ms
}

// The M/D/1 sojourn tail drives the delay-distribution bound of the
// paper's ineq. (16): shift it right by beta + alpha.
func ExampleMD1() {
	q := lit.MD1{Lambda: 660.3, Service: 424.0 / 400e3} // Figure 9's session
	fmt.Printf("rho = %.2f\n", q.Rho())
	fmt.Printf("P(D > 10ms) = %.4f\n", q.SojournTail(10e-3))
	// Output:
	// rho = 0.70
	// P(D > 10ms) = 0.0027
}

// Admission control procedure 2 decouples class-1 delay from L/r: a
// low-rate session can still receive a small d (the paper's Section 2
// example).
func ExampleProcedure2() {
	classes := []lit.Class{
		{R: 10e6, Sigma: 0.2e-3},
		{R: 40e6, Sigma: 1.6e-3},
		{R: 100e6, Sigma: 4e-3},
	}
	ac, err := lit.NewProcedure2(100e6, classes)
	if err != nil {
		panic(err)
	}
	spec := lit.SessionSpec{ID: 1, Rate: 10e3, LMax: 400, LMin: 400}
	a, err := ac.Admit(spec, 1, lit.AdmitOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("10 kbit/s session in class 1: d = %.1f ms\n", a.DMax*1e3)
	// Output:
	// 10 kbit/s session in class 1: d = 0.2 ms
}

// The eq. 12-17 bound calculators work standalone — the isolation
// property means no other session's behavior is needed.
func ExampleRoute() {
	hops := make([]lit.Hop, 5)
	for i := range hops {
		hops[i] = lit.Hop{C: 1536e3, Gamma: 1e-3, DMax: 424.0 / 32e3}
	}
	route := lit.Route{Hops: hops, LMax: 424}
	fmt.Printf("beta = %.2f ms\n", route.Beta()*1e3)
	fmt.Printf("delay bound = %.2f ms\n", route.DelayBound(424/32e3)*1e3)
	fmt.Printf("jitter bound (control) = %.2f ms\n", route.JitterBoundControl(0.01325, 424)*1e3)
	// Output:
	// beta = 59.38 ms
	// delay bound = 72.63 ms
	// jitter bound (control) = 13.25 ms
}

// Token buckets characterize conforming traffic: a shaper holds each
// packet until the bucket covers it.
func ExampleTokenBucket() {
	tb := analytic.NewTokenBucket(32e3, 424)
	fmt.Printf("hold %.2f ms\n", tb.ConformanceDelay(0, 424)*1e3) // full bucket covers one packet
	tb.Take(0, 424)
	fmt.Printf("hold %.2f ms\n", tb.ConformanceDelay(0, 424)*1e3) // empty now: wait for 424 bits
	fmt.Printf("hold %.2f ms\n", tb.ConformanceDelay(1, 424)*1e3) // a second's refill more than covers it
	// Output:
	// hold 0.00 ms
	// hold 13.25 ms
	// hold 0.00 ms
}
