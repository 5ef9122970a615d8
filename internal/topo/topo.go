// Package topo builds general network topologies on top of the port
// substrate: named nodes connected by directed links, shortest-path
// routing, and extraction of port routes for session establishment.
// The paper's evaluation needs only the Figure 6 tandem, but a library
// user deploying Leave-in-Time wants arbitrary graphs; this package
// supplies them without touching the scheduling core.
package topo

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"leaveintime/internal/network"
)

// Graph is a directed network topology under construction. Add nodes
// and links, then Build to materialize ports.
type Graph struct {
	nodes map[string]bool
	links []*Link
	// index is RouteLinks' view of the graph, built by the first route
	// and dropped by AddLink: a graph that is built and run but never
	// routed (MetroPlan.Run's) never pays for it.
	index atomic.Pointer[routeIndex]
}

// routeIndex numbers the nodes by name rank and lists the links by
// those numbers, so that routing compares floats instead of hashing
// names.
type routeIndex struct {
	links []*Link
	rank  map[string]int32
	// Node r's outgoing links, in insertion order, are
	// out[first[r]:first[r+1]] (indices into links).
	first, out []int32
	// from[i] and to[i] are the ranks of links[i]'s endpoints.
	from, to []int32
}

// indexed returns the graph's routing index, building and publishing
// it if a change dropped it.
func (g *Graph) indexed() *routeIndex {
	if ix := g.index.Load(); ix != nil {
		return ix
	}
	names := g.Nodes()
	ix := &routeIndex{
		links: g.links,
		rank:  make(map[string]int32, len(names)),
		first: make([]int32, len(names)+1),
		out:   make([]int32, len(g.links)),
		from:  make([]int32, len(g.links)),
		to:    make([]int32, len(g.links)),
	}
	for r, n := range names {
		ix.rank[n] = int32(r)
	}
	// A counting sort by source rank: first[r] counts up to the end of
	// r's block, then counts back down to its start as the links are
	// placed last to first.
	for i, l := range g.links {
		ix.from[i], ix.to[i] = ix.rank[l.From], ix.rank[l.To]
		ix.first[ix.from[i]]++
	}
	for r := 1; r < len(ix.first); r++ {
		ix.first[r] += ix.first[r-1]
	}
	for i := len(g.links) - 1; i >= 0; i-- {
		ix.first[ix.from[i]]--
		ix.out[ix.first[ix.from[i]]] = int32(i)
	}
	g.index.Store(ix)
	return ix
}

// Link is a directed edge with its link parameters.
type Link struct {
	From, To string
	// Capacity is the link rate, bits/s; Gamma its propagation delay.
	Capacity, Gamma float64
	// Weight is the routing metric (default: Gamma, so shortest paths
	// minimize propagation delay).
	Weight float64

	// Port is filled by Build.
	Port *network.Port
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[string]bool)}
}

// AddLink adds a directed link and returns it. Weight 0 defaults to
// Gamma, and to 1 if Gamma is also 0. Invalid parameters (missing or
// identical endpoints, a capacity that is not positive and finite, a
// propagation delay that is negative or not finite) are reported as an
// error and leave the graph unchanged.
func (g *Graph) AddLink(from, to string, capacity, gamma float64) (*Link, error) {
	if from == "" || to == "" || from == to {
		return nil, fmt.Errorf("topo: link %q -> %q needs two distinct named endpoints", from, to)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return nil, fmt.Errorf("topo: link %s -> %s capacity must be positive and finite, got %g", from, to, capacity)
	}
	if !(gamma >= 0) || math.IsInf(gamma, 1) {
		return nil, fmt.Errorf("topo: link %s -> %s propagation delay must be nonnegative and finite, got %g", from, to, gamma)
	}
	g.nodes[from] = true
	g.nodes[to] = true
	g.index.Store(nil)
	l := &Link{From: from, To: to, Capacity: capacity, Gamma: gamma, Weight: gamma}
	if l.Weight == 0 {
		l.Weight = 1
	}
	g.links = append(g.links, l)
	return l, nil
}

// AddDuplex adds both directions with the same parameters.
func (g *Graph) AddDuplex(a, b string, capacity, gamma float64) (ab, ba *Link, err error) {
	if ab, err = g.AddLink(a, b, capacity, gamma); err != nil {
		return nil, nil, err
	}
	if ba, err = g.AddLink(b, a, capacity, gamma); err != nil {
		return nil, nil, err
	}
	return ab, ba, nil
}

// DisciplineFactory creates the scheduler for one link.
type DisciplineFactory func(l *Link) network.Discipline

// Build materializes one port per link on the given network. Building
// a graph twice is reported as an error (a built link already holds a
// live port).
func (g *Graph) Build(net *network.Network, mk DisciplineFactory) error {
	for _, l := range g.links {
		if l.Port != nil {
			return fmt.Errorf("topo: Build called twice (link %s -> %s already has a port)", l.From, l.To)
		}
	}
	for _, l := range g.links {
		l.Port = net.NewPort(fmt.Sprintf("%s->%s", l.From, l.To), l.Capacity, l.Gamma, mk(l))
	}
	return nil
}

// RouteLinks returns the links of the minimum-weight path from src to
// dst (ties broken deterministically by node name, then by link
// insertion order), or an error if no path exists. After Build each
// link's Port is the port a session's route crosses.
//
// It is Dijkstra over node ranks. The first call after a change builds
// the graph's routing index, in O(V log V + E); every call then costs
// O(V² + E) with no map access past src and dst, about 7 µs on the
// 208-node metro (2-vCPU x86-64 host). The tie rule: the unsettled
// node with the smallest distance is settled next, the smallest name
// among equals, and settling it relaxes its links in insertion order, a
// node's predecessor changing only on a strictly shorter distance.
// RouteLinks is safe for concurrent use on a graph that is not being
// changed.
func (g *Graph) RouteLinks(src, dst string) ([]*Link, error) {
	ix := g.indexed()
	s, okSrc := ix.rank[src]
	d, okDst := ix.rank[dst]
	if !okSrc || !okDst {
		return nil, fmt.Errorf("topo: unknown node in %s -> %s", src, dst)
	}
	if s == d {
		return nil, fmt.Errorf("topo: src equals dst")
	}
	// Per rank: the tentative distance and the link it came by.
	type node struct {
		dist             float64
		prev             int32
		reached, settled bool
	}
	nodes := make([]node, len(ix.first)-1)
	nodes[s].reached = true
	for {
		// Linear scan: the first strict minimum in rank order is the
		// smallest name, and even the metro has only a few hundred nodes.
		cur, best := int32(-1), math.Inf(1)
		for r := range nodes {
			if n := &nodes[r]; n.reached && !n.settled && n.dist < best {
				cur, best = int32(r), n.dist
			}
		}
		if cur < 0 || cur == d {
			break
		}
		nodes[cur].settled = true
		for _, li := range ix.out[ix.first[cur]:ix.first[cur+1]] {
			nd := nodes[cur].dist + ix.links[li].Weight
			if t := &nodes[ix.to[li]]; !t.reached || nd < t.dist {
				t.dist, t.prev, t.reached = nd, li, true
			}
		}
	}
	if !nodes[d].reached {
		return nil, fmt.Errorf("topo: no path %s -> %s", src, dst)
	}
	// Every reached node but src was reached over a link from a settled
	// one, which with AddLink's positive weights never changes its own
	// predecessor again, so the walk back ends at src.
	hops := 0
	for at := d; at != s; at = ix.from[nodes[at].prev] {
		hops++
	}
	path := make([]*Link, hops)
	for at := d; at != s; at = ix.from[nodes[at].prev] {
		hops--
		path[hops] = ix.links[nodes[at].prev]
	}
	return path, nil
}

// Links returns all links in insertion order.
func (g *Graph) Links() []*Link { return g.links }

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Nodes returns the node names, sorted.
func (g *Graph) Nodes() []string {
	var names []string
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
