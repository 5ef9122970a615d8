package lit_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	lit "leaveintime"
	"leaveintime/internal/analytic"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/sched"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

func mustSystem(t *testing.T, cfg lit.SystemConfig) *lit.System {
	t.Helper()
	sys, err := lit.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustServer(t *testing.T, sys *lit.System, name string, capacity, gamma float64) *lit.Server {
	t.Helper()
	srv, err := sys.AddServer(name, capacity, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTwoHopSystem(t *testing.T) (*lit.System, []*lit.Server) {
	t.Helper()
	sys := mustSystem(t, lit.SystemConfig{LMax: 1000})
	a := mustServer(t, sys, "A", 1e6, 1e-3)
	b := mustServer(t, sys, "B", 1e6, 1e-3)
	return sys, []*lit.Server{a, b}
}

func TestSystemConnectBounds(t *testing.T) {
	sys, route := newTwoHopSystem(t)
	sess, bounds, err := sys.Connect(lit.ConnectRequest{
		Rate:   1e5,
		Route:  route,
		B0:     2000,
		Source: lit.NewShaped(&lit.Poisson{Mean: 0.008, Length: 1000, Rng: lit.NewRand(1)}, 1e5, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if bounds.DRefMax != 0.02 {
		t.Errorf("DRefMax = %v, want b0/r = 0.02", bounds.DRefMax)
	}
	// beta = 2*(1000/1e6 + 1e-3) + 1*(1000/1e5) = 0.004 + 0.01.
	if math.Abs(bounds.Beta-0.014) > 1e-12 {
		t.Errorf("Beta = %v, want 0.014", bounds.Beta)
	}
	if math.Abs(bounds.DelayBound-(0.02+0.014)) > 1e-12 {
		t.Errorf("DelayBound = %v", bounds.DelayBound)
	}
	if len(bounds.BufferBoundBits) != 2 {
		t.Fatalf("buffer bounds per hop: %v", bounds.BufferBoundBits)
	}
	sys.Run(30)
	if sess.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if sess.Delays.Max() >= bounds.DelayBound {
		t.Errorf("measured delay %v >= bound %v", sess.Delays.Max(), bounds.DelayBound)
	}
}

func TestSystemRejectsOverbooking(t *testing.T) {
	sys, route := newTwoHopSystem(t)
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 0.9e6, Route: route}); err != nil {
		t.Fatal(err)
	}
	_, _, err := sys.Connect(lit.ConnectRequest{Rate: 0.2e6, Route: route})
	if err == nil {
		t.Fatal("overbooking accepted")
	}
	if !errors.Is(err, lit.ErrRejected) {
		t.Errorf("error %v does not wrap ErrRejected", err)
	}
	// The refusal's numbers survive the route walk: 1.1 Mbit/s asked of
	// a 1 Mbit/s link.
	var rej *lit.RejectError
	if !errors.As(err, &rej) || rej.Rule != 1 || rej.Class != 1 || rej.Need != 1.1e6 || rej.Have != 1e6 {
		t.Errorf("error %v unwraps to %+v", err, rej)
	}
}

func TestSystemRollbackOnPartialRejection(t *testing.T) {
	// Fill server B only; a route through A and B must fail at B and
	// leave A's budget untouched.
	sys := mustSystem(t, lit.SystemConfig{LMax: 1000})
	a := mustServer(t, sys, "A", 1e6, 0)
	b := mustServer(t, sys, "B", 1e6, 0)
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 1e6, Route: []*lit.Server{b}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 0.5e6, Route: []*lit.Server{a, b}}); err == nil {
		t.Fatal("expected rejection at B")
	}
	// A must still have its full capacity.
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 1e6, Route: []*lit.Server{a}}); err != nil {
		t.Fatalf("rollback failed, A's budget leaked: %v", err)
	}
}

func TestSystemTeardown(t *testing.T) {
	sys, route := newTwoHopSystem(t)
	sess, _, err := sys.Connect(lit.ConnectRequest{Rate: 1e6, Route: route})
	if err != nil {
		t.Fatal(err)
	}
	sys.Teardown(sess)
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 1e6, Route: route}); err != nil {
		t.Fatalf("capacity not released: %v", err)
	}
}

func TestSystemValidation(t *testing.T) {
	sys, route := newTwoHopSystem(t)
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 1e5}); err == nil {
		t.Error("empty route accepted")
	}
	if _, _, err := sys.Connect(lit.ConnectRequest{Route: route}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, _, err := sys.Connect(lit.ConnectRequest{Rate: 1e5, Route: route, LMax: 5000}); err == nil {
		t.Error("session LMax above network LMax accepted")
	}
}

func TestSystemConstructionErrors(t *testing.T) {
	if _, err := lit.NewSystem(lit.SystemConfig{}); err == nil {
		t.Error("zero LMax accepted")
	}
	if _, err := lit.NewSystem(lit.SystemConfig{LMax: -1}); err == nil {
		t.Error("negative LMax accepted")
	}
	if _, err := lit.NewSystem(lit.SystemConfig{LMax: 400, Proc: 7}); err == nil {
		t.Error("unknown procedure accepted")
	}
	sys := mustSystem(t, lit.SystemConfig{LMax: 400})
	if _, err := sys.AddServer("bad", 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := sys.AddServer("bad", 1e6, -1); err == nil {
		t.Error("negative propagation delay accepted")
	}
	// Non-finite parameters: a NaN delay once passed and panicked the
	// run in the event engine.
	for _, p := range []struct{ capacity, gamma float64 }{
		{math.NaN(), 1e-3}, {math.Inf(1), 1e-3}, {1e6, math.NaN()}, {1e6, math.Inf(1)},
	} {
		if _, err := sys.AddServer("bad", p.capacity, p.gamma); err == nil {
			t.Errorf("capacity %g, propagation delay %g accepted", p.capacity, p.gamma)
		}
		cfg := lit.SystemConfig{LMax: 400}
		if err := cfg.Check("bad", p.capacity, p.gamma); err == nil {
			t.Errorf("Check passed capacity %g, propagation delay %g", p.capacity, p.gamma)
		}
	}
	if len(sys.Servers()) != 0 {
		t.Errorf("rejected servers left state behind: %d servers", len(sys.Servers()))
	}
	// Procedure 2 requires R_P = C: a class hierarchy that tops out
	// below the link capacity must be reported per server, not crash.
	sys2 := mustSystem(t, lit.SystemConfig{
		LMax:    400,
		Classes: []lit.Class{{R: 10e6, Sigma: 1e-3}},
		Proc:    2,
	})
	if _, err := sys2.AddServer("X", 100e6, 0); err == nil {
		t.Error("class hierarchy with R_P != C accepted")
	}
	// Declarations no bound can be read off: each was once connected,
	// with a NaN or infinite delay bound, or zero bounds for a negative
	// b0, or bounds from a bucket no packet passes.
	for _, c := range []struct {
		name string
		proc int
		req  lit.ConnectRequest
	}{
		{"eps NaN", 1, lit.ConnectRequest{Eps: math.NaN()}},
		{"eps +Inf", 2, lit.ConnectRequest{Eps: math.Inf(1)}},
		{"d NaN", 3, lit.ConnectRequest{D: math.NaN()}},
		{"d +Inf", 3, lit.ConnectRequest{D: math.Inf(1)}},
		{"b0 -1", 1, lit.ConnectRequest{B0: -1}},
		{"b0 NaN", 1, lit.ConnectRequest{B0: math.NaN()}},
		{"b0 +Inf", 1, lit.ConnectRequest{B0: math.Inf(1)}},
		{"b0 below lmax", 1, lit.ConnectRequest{B0: 100}},
	} {
		cfg := lit.SystemConfig{LMax: 424, Proc: c.proc}
		if c.proc == 2 {
			cfg.Classes = []lit.Class{{RFrac: 1, Sigma: 0.01}}
		}
		c.req.Rate = 32e3
		if err := cfg.Check("X", 1536e3, 1e-3, c.req); err == nil {
			t.Errorf("%s: Check passed", c.name)
		}
		sys := mustSystem(t, cfg)
		c.req.Route = []*lit.Server{mustServer(t, sys, "X", 1536e3, 1e-3)}
		if _, b, err := sys.Connect(c.req); err == nil {
			t.Errorf("%s: connected, d_max %g, delay bound %g", c.name, b.Assignments[0].DMax, b.DelayBound)
		}
	}
}

func TestSystemWithClasses(t *testing.T) {
	sys := mustSystem(t, lit.SystemConfig{
		LMax:    400,
		Classes: []lit.Class{{R: 10e6, Sigma: 0.2e-3}, {R: 100e6, Sigma: 4e-3}},
		Proc:    2,
	})
	s := mustServer(t, sys, "X", 100e6, 0)
	_, bounds, err := sys.Connect(lit.ConnectRequest{
		Rate: 100e3, Route: []*lit.Server{s}, Class: 1, B0: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Procedure 2, class 1: d = sigma_1 = 0.2 ms.
	if math.Abs(bounds.Assignments[0].DMax-0.2e-3) > 1e-12 {
		t.Errorf("class-1 d = %v, want 0.2 ms", bounds.Assignments[0].DMax)
	}
}

func TestPGPSEquality(t *testing.T) {
	// eq. (15): LiT with AC1/one-class equals the PGPS bound, exactly.
	for _, n := range []int{1, 2, 5, 9} {
		got := scenarios.RunSection4PGPS(32e3, 3*424, 424, 1536e3, 1e-3, n)
		if math.Abs(got.LiT-got.PGPS) > 1e-15 {
			t.Errorf("n=%d: LiT bound %v != PGPS bound %v", n, got.LiT, got.PGPS)
		}
	}
}

func TestStopAndGoComparison(t *testing.T) {
	// The Section 4 worked example: rate 0.1C, d = 0.1T. Per-link
	// increase: LiT L_MAX/C + 0.1T vs Stop-and-Go's [T, 2T).
	c := scenarios.RunSection4StopAndGo(0.01, 1536e3, 5)
	wantPerLink := 0.01*0.01*1536e3/1536e3 + 0.1*0.01 // 0.0001 + 0.001
	if math.Abs(c.PerLinkLiT-wantPerLink) > 1e-12 {
		t.Errorf("per-link LiT = %v, want %v", c.PerLinkLiT, wantPerLink)
	}
	if c.PerLinkSG[0] != 0.01 || c.PerLinkSG[1] != 0.02 {
		t.Errorf("per-link S&G = %v", c.PerLinkSG)
	}
	if c.PerLinkLiT >= c.PerLinkSG[0] {
		t.Error("LiT per-link increase should beat Stop-and-Go's")
	}
	// End-to-end: LiT = T + beta; S&G in [NT, 2NT).
	if c.LiT >= c.SGLow {
		t.Errorf("LiT bound %v should be below S&G's %v here", c.LiT, c.SGLow)
	}
	if !strings.Contains(c.Format(), "Stop-and-Go") {
		t.Error("Format output missing content")
	}
}

func TestMD1Exported(t *testing.T) {
	q := lit.MD1{Lambda: 0.7, Service: 1}
	if math.Abs(q.WaitTail(0)-0.7) > 1e-12 {
		t.Errorf("WaitTail(0) = %v", q.WaitTail(0))
	}
}

func TestRefServerExported(t *testing.T) {
	rs := analytic.NewRefServer(100)
	fin, d := rs.Arrive(0, 100)
	if fin != 1 || d != 1 {
		t.Errorf("Arrive = (%v, %v)", fin, d)
	}
}

func TestTracingEndToEnd(t *testing.T) {
	sys, route := newTwoHopSystem(t)
	rec := &trace.Recorder{}
	sys.Net.Tracer = rec
	sess, _, err := sys.Connect(lit.ConnectRequest{
		Rate:   1e5,
		Route:  route,
		Source: &traffic.Deterministic{Interval: 0.05, Length: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1)
	if len(rec.Events) == 0 {
		t.Fatal("no events traced")
	}
	hops := rec.PerHopDelays(sess.ID)
	if len(hops) != 2 {
		t.Fatalf("per-hop delays for %d hops", len(hops))
	}
	// Uncontended: each hop's transit is exactly one transmission time.
	for _, h := range hops {
		if math.Abs(h.Transit.Mean()-1000/1e6) > 1e-12 {
			t.Errorf("hop %d transit %v, want 1 ms", h.Hop, h.Transit.Mean())
		}
		if h.Queue.Max() != 0 {
			t.Errorf("hop %d unexpected queueing %v", h.Hop, h.Queue.Max())
		}
	}
	// A delivery event exists for every delivered packet.
	var delivers int
	for _, e := range rec.Events {
		if e.Kind == trace.Deliver {
			delivers++
		}
	}
	if int64(delivers) != sess.Delivered {
		t.Errorf("deliver events %d != delivered %d", delivers, sess.Delivered)
	}
}

// TestFacadeRunnersShort drives every exported experiment runner at
// tiny durations, checking structure rather than statistics.
func TestFacadeRunnersShort(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short")
	}
	if rows := lit.RunFig7(1, 5).Rows; len(rows) != 7 {
		t.Errorf("RunFig7 rows = %d", len(rows))
	}
	if r := scenarios.RunFig10(1, 5); r.Summary.Packets == 0 {
		t.Error("RunFig10 empty")
	}
	if r := scenarios.RunFig11(1, 5); r.Summary.Packets == 0 {
		t.Error("RunFig11 empty")
	}
	if r := scenarios.RunFig14to17(1, 5, 2); r.Sessions[0].DPerNode == 0 {
		t.Error("RunFig14to17 missing d")
	}
	if r := scenarios.RunPerHop(2, 5); len(r.Ctrl) != 5 {
		t.Error("RunPerHop hops")
	}
	if r := scenarios.RunCallBlocking(20, 5, 30, 1); r.Arrivals == 0 {
		t.Error("RunCallBlocking empty")
	}
	if r := scenarios.RunEstablishment(5, 1e-3); r.Accepted != 116 {
		t.Errorf("RunEstablishment accepted %d", r.Accepted)
	}
	if r := scenarios.RunSaturation(3, 5, 4, 5); r.Saturated.Max() <= r.Admissible.Max() {
		t.Error("RunSaturation shape")
	}
	if r := scenarios.RunComparison(2, 5, 0.65); len(r.Rows) != 12 {
		t.Errorf("RunComparison rows = %d", len(r.Rows))
	}
	if data, err := scenarios.JSON(scenarios.RunFig10(1, 5)); err != nil || len(data) == 0 {
		t.Errorf("ResultJSON: %v", err)
	}
}

func TestCalculusFacade(t *testing.T) {
	flow := lit.TokenBucketCurve(32e3, 424)
	agg := lit.SumCurves(flow, lit.TokenBucketCurve(1e5, 1000))
	if agg.FinalSlope() != 132e3 {
		t.Errorf("SumCurves = %+v", agg)
	}
	hops := []lit.TandemHop{{
		Server: lit.FCFSServer{C: 1536e3, LMax: 424},
		Cross:  lit.TokenBucketCurve(1e6, 2120),
		Gamma:  1e-3,
	}}
	if d, err := lit.TandemDelayBound(flow, hops); err != nil || d <= 0 {
		t.Errorf("TandemDelayBound = %v, %v", d, err)
	}
}

// TestDisciplineConstructors builds every row of the discipline table,
// and Leave-in-Time through the root constructor, for one session.
func TestDisciplineConstructors(t *testing.T) {
	cfg := lit.SessionPort{Session: 1, Rate: 1e5, LocalDelay: 1e-3, XMin: 1e-3}
	ds := map[string]lit.Discipline{
		"root lit": lit.NewLeaveInTime(lit.LeaveInTimeConfig{Capacity: 1e6, LMax: 424}),
	}
	for _, row := range sched.Table {
		ds[row.Name] = row.New(1e6, 424, 1e-2)
	}
	for name, d := range ds {
		d.AddSession(cfg)
		if d.Len() != 0 {
			t.Errorf("%s: fresh discipline nonempty", name)
		}
	}
	edd := sched.NewEDDAdmission(1e6, 424)
	if err := edd.Admit(1, 1e-2, 424, 1e-2); err != nil {
		t.Errorf("EDDAdmission: %v", err)
	}
}

func TestExperimentRunnersShort(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs skipped in -short")
	}
	res := scenarios.RunFig8Observed(2, 5, nil)
	if res.NoCtrl.Packets == 0 {
		t.Error("Fig8 produced no packets")
	}
	if !strings.Contains(res.Format(), "jitter control") {
		t.Error("Fig8 Format output")
	}
	if !strings.Contains(res.FormatBuffers(), "node 5") {
		t.Error("Fig8 FormatBuffers output")
	}
	d := scenarios.RunFig9(2, 5)
	if d.Summary.Packets == 0 || len(d.Analytic) == 0 || len(d.SimRef) == 0 {
		t.Error("Fig9 incomplete result")
	}
	if !strings.Contains(d.Format(), "rho") {
		t.Error("Fig9 Format output")
	}
}
