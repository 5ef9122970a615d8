package system

import (
	"fmt"
	"math"
	"testing"

	"leaveintime/internal/admission"
	"leaveintime/internal/core"
	"leaveintime/internal/network"
)

// threeServers builds a system of three servers whose capacities and
// propagation delays all differ, so the order of a route shows in its
// bounds.
func threeServers(t *testing.T, cfg Config) (*System, []*Server) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var srvs []*Server
	for i, c := range []float64{1.536e6, 44.736e6, 155.52e6} {
		srv, err := sys.AddServer(fmt.Sprint("s", i), c, 1e-3*float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	return sys, srvs
}

// sameBounds reports the first number of got that differs from want's
// bits, or "" when none does. Each grant's d is compared at the
// session's two length extremes and between them.
func sameBounds(got, want *Bounds, lMin, lMax float64) string {
	bits := math.Float64bits
	nums := func(b *Bounds) []float64 {
		v := []float64{b.Beta, b.Alpha, b.DRefMax, b.DelayBound, b.JitterBound, b.Route.LMax, b.Route.Alpha}
		for _, h := range b.Route.Hops {
			v = append(v, h.C, h.Gamma, h.DMax)
		}
		v = append(v, b.BufferBoundBits...)
		for _, a := range b.Assignments {
			v = append(v, a.DMax, a.DMin, float64(a.Class), a.D(lMin), a.D(lMax), a.D((lMin+lMax)/2))
		}
		return v
	}
	g, w := nums(got), nums(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d numbers, want %d", len(g), len(w))
	}
	for i := range g {
		if bits(g[i]) != bits(w[i]) {
			return fmt.Sprintf("number %d is %v, want %v", i, g[i], w[i])
		}
	}
	return ""
}

// TestConnectMemoKey: a call that differs from the class's last call in
// any one field of its request or route gets the Bounds a fresh system
// computes for it, to the bit, and the ports it asked for; the same
// request gets the same Bounds and port list.
func TestConnectMemoKey(t *testing.T) {
	cfgs := []Config{
		{LMax: 1000, Proc: 1, Classes: []admission.Class{{RFrac: 0.25, Sigma: 4e-3}, {RFrac: 1, Sigma: 8e-3}}},
		{LMax: 1000, Proc: 2, Classes: []admission.Class{{RFrac: 0.25, Sigma: 4e-3}, {RFrac: 1, Sigma: 8e-3}}},
		{LMax: 1000, Proc: 3},
	}
	base := func(srvs []*Server) ConnectRequest {
		return ConnectRequest{Rate: 64e3, Route: srvs, Class: 1, LMax: 800, LMin: 200,
			Eps: 1e-4, D: 0.02, B0: 1600}
	}
	rows := []struct {
		field string
		vary  func(r *ConnectRequest)
	}{
		{"rate", func(r *ConnectRequest) { r.Rate = 96e3 }},
		{"LMax", func(r *ConnectRequest) { r.LMax = 600 }},
		{"LMin", func(r *ConnectRequest) { r.LMin = 400 }},
		{"class", func(r *ConnectRequest) { r.Class = 2 }},
		{"eps", func(r *ConnectRequest) { r.Eps = 2e-4 }},
		{"FixedD", func(r *ConnectRequest) { r.FixedD = true }},
		{"D", func(r *ConnectRequest) { r.D = 0.03 }},
		{"b0", func(r *ConnectRequest) { r.B0 = 3200 }},
		{"JitterControl", func(r *ConnectRequest) { r.JitterControl = true }},
		{"route order", func(r *ConnectRequest) { r.Route = []*Server{r.Route[2], r.Route[0], r.Route[1]} }},
		{"route length", func(r *ConnectRequest) { r.Route = r.Route[:2] }},
	}
	for _, cfg := range cfgs {
		for _, row := range rows {
			t.Run(fmt.Sprintf("proc%d/%s", cfg.Proc, row.field), func(t *testing.T) {
				sys, srvs := threeServers(t, cfg)
				if _, _, err := sys.Connect(base(srvs)); err != nil {
					t.Fatal(err)
				}
				req := base(srvs)
				row.vary(&req)
				sess, got, err := sys.Connect(req)
				if err != nil {
					t.Fatal(err)
				}
				fresh, fsrvs := threeServers(t, cfg)
				freq := base(fsrvs)
				row.vary(&freq)
				_, want, err := fresh.Connect(freq)
				if err != nil {
					t.Fatal(err)
				}
				lMin := req.LMin
				if lMin == 0 {
					lMin = req.LMax
				}
				if d := sameBounds(got, want, lMin, req.LMax); d != "" {
					t.Errorf("Bounds differ from a fresh system's: %s", d)
				}
				if len(sess.Route) != len(req.Route) {
					t.Fatalf("session route has %d ports, want %d", len(sess.Route), len(req.Route))
				}
				for i, srv := range req.Route {
					if sess.Route[i] != srv.Port {
						t.Errorf("session route hop %d is %s, want %s", i, sess.Route[i].Name, srv.Port.Name)
					}
				}
			})
		}
		t.Run(fmt.Sprintf("proc%d/shared", cfg.Proc), func(t *testing.T) {
			sys, srvs := threeServers(t, cfg)
			req := base(srvs)
			s1, b1, err := sys.Connect(req)
			if err != nil {
				t.Fatal(err)
			}
			req.Route = append([]*Server(nil), srvs...) // equal, not the same slice
			s2, b2, err := sys.Connect(req)
			if err != nil {
				t.Fatal(err)
			}
			req.Eps = 0
			_, b3, err := sys.Connect(req)
			if err != nil {
				t.Fatal(err)
			}
			req.Eps = math.Copysign(0, -1)
			_, b4, err := sys.Connect(req)
			if err != nil {
				t.Fatal(err)
			}
			if b1 != b2 || &s1.Route[0] != &s2.Route[0] {
				t.Error("an identical request did not share its class's Bounds and port list")
			}
			if b3 != b4 {
				t.Error("eps -0 after +0 did not share the Bounds")
			}
			if s1.ID == s2.ID {
				t.Errorf("two calls got one id %d", s1.ID)
			}
		})
	}
}

// TestConnectRefusesForeignServer: a route naming nil, a server built
// by another system, or a Server value no system built is refused with
// an error before any reservation, at this system or any other.
func TestConnectRefusesForeignServer(t *testing.T) {
	sys, mine := threeServers(t, Config{LMax: 1000})
	other, theirs := threeServers(t, Config{LMax: 1000})
	for _, c := range []struct {
		name  string
		route []*Server
	}{
		{"nil", []*Server{mine[0], nil}},
		{"foreign", []*Server{mine[0], theirs[1]}},
		{"foreign first", []*Server{theirs[0], mine[1]}},
		{"unbuilt", []*Server{mine[0], {Port: mine[1].Port, Capacity: mine[1].Capacity}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("Connect panicked: %v", p)
					}
				}()
				if _, _, err := sys.Connect(ConnectRequest{Rate: 64e3, Route: c.route}); err == nil {
					t.Error("Connect accepted the route")
				}
			}()
			for _, srv := range append(mine, theirs...) {
				if r := srv.ctrl.TotalRate(); r != 0 {
					t.Errorf("server %s holds %g b/s after the refusal", srv.Port.Name, r)
				}
			}
		})
	}
	// The other system's own calls are unaffected.
	if _, _, err := other.Connect(ConnectRequest{Rate: 64e3, Route: theirs}); err != nil {
		t.Errorf("the other system refuses its own call: %v", err)
	}
}

// TestConnectHitRefusesForeignServer: with the class memo holding a
// call over mine[0], mine[1], the same request over a route whose
// second hop is nil, another system's server or a Server value no
// system built on mine[1]'s port is refused as on an empty memo: the
// memo matches only the servers a miss checked, not their ports.
func TestConnectHitRefusesForeignServer(t *testing.T) {
	sys, mine := threeServers(t, Config{LMax: 1000})
	_, theirs := threeServers(t, Config{LMax: 1000})
	if _, _, err := sys.Connect(ConnectRequest{Rate: 64e3, Route: mine[:2]}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		route []*Server
	}{
		{"nil", []*Server{mine[0], nil}},
		{"foreign", []*Server{mine[0], theirs[1]}},
		{"unbuilt", []*Server{mine[0], {Port: mine[1].Port, Capacity: mine[1].Capacity}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("Connect panicked: %v", p)
					}
				}()
				if _, _, err := sys.Connect(ConnectRequest{Rate: 64e3, Route: c.route}); err == nil {
					t.Error("Connect accepted the route")
				}
			}()
			for i, srv := range append(mine, theirs...) {
				want := 0.0
				if i < 2 {
					want = 64e3 // the memo's call
				}
				if r := srv.ctrl.TotalRate(); r != want {
					t.Errorf("server %s holds %g b/s after the refusal, want %g", srv.Port.Name, r, want)
				}
			}
		})
	}
}

// TestDisconnectForeignSession: disconnecting a session another system
// established leaves both systems' networks, sessions and reservations
// as they were.
func TestDisconnectForeignSession(t *testing.T) {
	sys, mine := threeServers(t, Config{LMax: 1000})
	other, theirs := threeServers(t, Config{LMax: 1000})
	own, _, err := sys.Connect(ConnectRequest{Rate: 64e3, Route: mine})
	if err != nil {
		t.Fatal(err)
	}
	foreign, _, err := other.Connect(ConnectRequest{Rate: 64e3, Route: theirs})
	if err != nil {
		t.Fatal(err)
	}
	sys.Disconnect(foreign)
	for _, c := range []struct {
		sys  *System
		srvs []*Server
		sess *network.Session
	}{{sys, mine, own}, {other, theirs, foreign}} {
		if n := len(c.sys.Net.Sessions()); n != 1 {
			t.Errorf("a network lists %d sessions, want 1", n)
		}
		for _, srv := range c.srvs {
			if !srv.Port.Disc.(*core.LiT).HasSession(c.sess.ID) {
				t.Errorf("server %s lost its LiT state for session %d", srv.Port.Name, c.sess.ID)
			}
			if r := srv.ctrl.TotalRate(); r != 64e3 {
				t.Errorf("server %s holds %g b/s, want 64000", srv.Port.Name, r)
			}
		}
	}
	// Its own system still tears it down completely.
	other.Disconnect(foreign)
	for _, srv := range theirs {
		if srv.Port.Disc.(*core.LiT).HasSession(foreign.ID) || srv.ctrl.TotalRate() != 0 {
			t.Errorf("server %s still holds session %d", srv.Port.Name, foreign.ID)
		}
	}
}

// TestConnectRefusalKeepsMemo: a call refused at the last hop of its
// route, whether it is its class memo's request or not, leaves no
// reservation behind and leaves the memo as it was.
func TestConnectRefusalKeepsMemo(t *testing.T) {
	sys, srvs := threeServers(t, Config{LMax: 1000})
	route := []*Server{srvs[2], srvs[1], srvs[0]} // the T1 last: it fills first
	req := ConnectRequest{Rate: 64e3, Route: route, B0: 2000}
	first, b, err := sys.Connect(req)
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for ; ; n++ {
		if _, _, err = sys.Connect(req); err != nil {
			break
		}
	}
	want := float64(n) * req.Rate
	for _, srv := range route {
		if r := srv.ctrl.TotalRate(); r != want {
			t.Errorf("after the refusal server %s holds %g b/s, want %g", srv.Port.Name, r, want)
		}
	}
	sys.Disconnect(first)
	big := req
	big.Rate = 2 * req.Rate
	if _, _, err := sys.Connect(big); err == nil {
		t.Fatal("a call over the free capacity was admitted")
	}
	again, b2, err := sys.Connect(req)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b || &again.Route[0] != &first.Route[0] {
		t.Error("a refusal replaced the class memo")
	}
}
