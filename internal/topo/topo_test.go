package topo

import (
	"math"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/traffic"
)

func litFactory(lMax float64) DisciplineFactory {
	return func(l *Link) network.Discipline {
		return core.New(core.Config{Capacity: l.Capacity, LMax: lMax})
	}
}

func TestShortestPath(t *testing.T) {
	g := New()
	// A diamond: a-b-d is shorter (2 ms) than a-c-d (3 ms).
	g.AddLink("a", "b", 1e6, 1e-3)
	g.AddLink("b", "d", 1e6, 1e-3)
	g.AddLink("a", "c", 1e6, 1e-3)
	g.AddLink("c", "d", 1e6, 2e-3)
	links, err := g.RouteLinks("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 || links[0].To != "b" || links[1].To != "d" {
		t.Fatalf("path = %v", links)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	g := New()
	// Two equal-cost paths a-b-d and a-c-d: 'b' < 'c' must win, every
	// time.
	g.AddLink("a", "c", 1e6, 1e-3)
	g.AddLink("c", "d", 1e6, 1e-3)
	g.AddLink("a", "b", 1e6, 1e-3)
	g.AddLink("b", "d", 1e6, 1e-3)
	for i := 0; i < 10; i++ {
		links, err := g.RouteLinks("a", "d")
		if err != nil {
			t.Fatal(err)
		}
		if links[0].To != "b" {
			t.Fatalf("nondeterministic tie-break: via %s", links[0].To)
		}
	}
}

func TestNoPath(t *testing.T) {
	g := New()
	g.AddLink("a", "b", 1e6, 1e-3)
	g.AddLink("z", "b", 1e6, 1e-3)
	if _, err := g.RouteLinks("a", "z"); err == nil {
		t.Error("missing path not reported")
	}
	if _, err := g.RouteLinks("a", "nope"); err == nil {
		t.Error("unknown node not reported")
	}
	if _, err := g.RouteLinks("a", "a"); err == nil {
		t.Error("src == dst not reported")
	}
}

func TestBuildAndRunTraffic(t *testing.T) {
	g := New()
	g.AddDuplex("edge1", "corex", 10e6, 1e-3)
	g.AddDuplex("corex", "edge2", 10e6, 1e-3)
	sim := event.New()
	net := network.New(sim, 8000)
	if err := g.Build(net, litFactory(8000)); err != nil {
		t.Fatal(err)
	}

	route, err := routePorts(g, "edge1", "edge2")
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 {
		t.Fatalf("route length %d", len(route))
	}
	s := net.AddSession(1, 1e6, false, route, make([]network.SessionPort, 2),
		&traffic.Deterministic{Interval: 8e-3, Length: 8000})
	s.Start(0, 2)
	sim.Run(3)
	if s.Delivered == 0 {
		t.Fatal("no packets over the built topology")
	}
	// Reverse direction is a distinct pair of ports.
	back, err := routePorts(g, "edge2", "edge1")
	if err != nil {
		t.Fatal(err)
	}
	if back[0] == route[1] || back[1] == route[0] {
		t.Error("reverse route reuses forward ports")
	}
}

// TestRouteBeforeBuild: a route can be found before Build, and its
// links have no port until Build makes them.
func TestRouteBeforeBuild(t *testing.T) {
	g := New()
	g.AddLink("a", "b", 1e6, 1e-3)
	links, err := g.RouteLinks("a", "b")
	if err != nil || len(links) != 1 || links[0].Port != nil {
		t.Errorf("RouteLinks before Build = %v, %v; want one link without a port", links, err)
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func(g *Graph) error
	}{
		{"empty from", func(g *Graph) error { _, err := g.AddLink("", "b", 1, 0); return err }},
		{"empty to", func(g *Graph) error { _, err := g.AddLink("a", "", 1, 0); return err }},
		{"self loop", func(g *Graph) error { _, err := g.AddLink("a", "a", 1, 0); return err }},
		{"zero capacity", func(g *Graph) error { _, err := g.AddLink("a", "b", 0, 0); return err }},
		{"negative capacity", func(g *Graph) error { _, err := g.AddLink("a", "b", -1, 0); return err }},
		{"NaN capacity", func(g *Graph) error { _, err := g.AddLink("a", "b", math.NaN(), 0); return err }},
		{"infinite capacity", func(g *Graph) error { _, err := g.AddLink("a", "b", math.Inf(1), 0); return err }},
		// A negative delay would be a negative routing weight, which
		// Dijkstra does not handle.
		{"negative gamma", func(g *Graph) error { _, err := g.AddLink("a", "b", 1, -1); return err }},
		{"NaN gamma", func(g *Graph) error { _, err := g.AddLink("a", "b", 1, math.NaN()); return err }},
		{"infinite gamma", func(g *Graph) error { _, err := g.AddLink("a", "b", 1, math.Inf(1)); return err }},
		{"duplex NaN gamma", func(g *Graph) error { _, _, err := g.AddDuplex("a", "b", 1, math.NaN()); return err }},
		{"duplex empty endpoint", func(g *Graph) error { _, _, err := g.AddDuplex("", "b", 1, 0); return err }},
		{"duplex self loop", func(g *Graph) error { _, _, err := g.AddDuplex("a", "a", 1, 0); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New()
			if err := tc.fn(g); err == nil {
				t.Error("invalid input accepted")
			}
			// A rejected call must leave the graph untouched.
			if len(g.Links()) != 0 || len(g.Nodes()) != 0 {
				t.Errorf("rejected call mutated graph: nodes=%v links=%d", g.Nodes(), len(g.Links()))
			}
		})
	}
}

func TestBuildTwiceErrors(t *testing.T) {
	g := New()
	if _, err := g.AddLink("a", "b", 1e6, 1e-3); err != nil {
		t.Fatal(err)
	}
	sim := event.New()
	net := network.New(sim, 8000)
	if err := g.Build(net, litFactory(8000)); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(net, litFactory(8000)); err == nil {
		t.Error("second Build did not error")
	}
	// A failed second Build must not have replaced the live ports.
	if g.Links()[0].Port == nil {
		t.Error("failed Build cleared the existing port")
	}
}

func TestNodesAndLinksAccessors(t *testing.T) {
	g := New()
	g.AddDuplex("b", "a", 1e6, 1e-3)
	if n := g.Nodes(); len(n) != 2 || n[0] != "a" || g.NodeCount() != 2 {
		t.Errorf("Nodes = %v, NodeCount = %d", n, g.NodeCount())
	}
	if len(g.Links()) != 2 {
		t.Errorf("Links = %d", len(g.Links()))
	}
}

// routePorts is the ports of the route RouteLinks finds.
func routePorts(g *Graph, src, dst string) ([]*network.Port, error) {
	links, err := g.RouteLinks(src, dst)
	ports := make([]*network.Port, len(links))
	for i, l := range links {
		ports[i] = l.Port
	}
	return ports, err
}
