package lit

import "leaveintime/internal/topo"

// General topologies: named nodes, directed links, shortest-path
// routing, materialized onto ports. The paper's experiments use the
// Figure 6 tandem; Graph lets library users deploy Leave-in-Time on
// arbitrary networks. Construction reports invalid input (empty or
// duplicate endpoints, nonpositive capacity, double Build) as errors:
//
//	g := lit.NewGraph()
//	if _, _, err := g.AddDuplex("sea", "chi", 45e6, 12e-3); err != nil { ... }
//	if _, _, err := g.AddDuplex("chi", "nyc", 45e6, 8e-3); err != nil { ... }
//	err := g.Build(net, func(l *lit.Link) lit.Discipline {
//		return lit.NewLeaveInTime(lit.LeaveInTimeConfig{Capacity: l.Capacity, LMax: lMax})
//	})
//	links, err := g.RouteLinks("sea", "nyc")
type (
	// Graph is a directed topology under construction.
	Graph = topo.Graph
	// Link is one directed edge (and, after Build, its port).
	Link = topo.Link
	// DisciplineFactory builds the scheduler for one link.
	DisciplineFactory = topo.DisciplineFactory
)

// NewGraph returns an empty topology.
func NewGraph() *Graph { return topo.New() }
