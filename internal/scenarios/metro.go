package scenarios

import (
	"fmt"
	"math"
	"strings"

	"leaveintime/internal/core"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/shard"
	"leaveintime/internal/topo"
)

// MetroOptions parameterize the metro-scale workload: a generated
// ring-of-rings topology (topo.Metro) carrying a deterministic mix of
// intra-ring and cross-metro voice sessions — hundreds of switches,
// rebuilt every run. It runs on the shard runtime, at one shard for
// litsim; the benchmark also times it at two (DESIGN.md "Parallel
// execution" has why that stays a measurement).
type MetroOptions struct {
	// Rings and RingSize size the topology (topo.DefaultMetro); zero
	// picks 16 rings of 12 access switches — 208 switches.
	Rings, RingSize int
	// Duration is the emission window in simulated seconds.
	Duration float64
	// Seed drives the ON-OFF sources.
	Seed uint64
	// Shards is the shard count (>= 1; zero picks 1), driven by the
	// runtime's default worker count.
	Shards int
	// Metrics attaches per-shard telemetry registries (the benchmark
	// leaves them off to measure the bare hot path).
	Metrics bool
}

// Sessions per ring: local ones run hub -> farthest access switch,
// cross ones run from an access switch over the backbone into the next
// rings.
const (
	metroLocalPerRing = 2
	metroCrossPerRing = 2
)

func (o *MetroOptions) defaults() {
	if o.Rings == 0 {
		o.Rings = 16
	}
	if o.RingSize == 0 {
		o.RingSize = 12
	}
	if o.Duration == 0 {
		o.Duration = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
}

// MetroPlan is a routed metro workload: the topology parameters plus
// every session's route, stored as indices into the generated graph's
// link list. Planning (Dijkstra over hundreds of nodes) happens once;
// each Run regenerates the graph — a built graph's links hold live
// ports, so graphs are single-use — and replays the stored routes.
type MetroPlan struct {
	opt    MetroOptions
	cfg    topo.MetroConfig
	routes [][]int // per session: global link indices
}

// PlanMetro builds the metro workload plan. Deterministic in the
// options.
func PlanMetro(opt MetroOptions) (*MetroPlan, error) {
	opt.defaults()
	if opt.Shards < 1 {
		return nil, fmt.Errorf("scenarios: metro shard count must be at least 1, got %d", opt.Shards)
	}
	p := &MetroPlan{opt: opt, cfg: topo.DefaultMetro(opt.Rings, opt.RingSize)}
	g, err := topo.Metro(p.cfg)
	if err != nil {
		return nil, err
	}
	idx := make(map[*topo.Link]int, len(g.Links()))
	for i, l := range g.Links() {
		idx[l] = i
	}
	addRoute := func(from, to string) error {
		links, err := g.RouteLinks(from, to)
		if err != nil {
			return err
		}
		route := make([]int, len(links))
		for i, l := range links {
			route[i] = idx[l]
		}
		p.routes = append(p.routes, route)
		return nil
	}
	for i := 0; i < opt.Rings; i++ {
		for s := 0; s < metroLocalPerRing; s++ {
			if err := addRoute(topo.MetroHub(i), topo.MetroNode(i, opt.RingSize-1)); err != nil {
				return nil, err
			}
		}
		for s := 0; s < metroCrossPerRing; s++ {
			// Spread cross-metro traffic: hop 1+s rings ahead, entering
			// and leaving through access switches so every route climbs
			// onto the backbone and back down.
			dst := (i + 1 + s) % opt.Rings
			if dst == i {
				continue // single-ring metro: no backbone to cross
			}
			if err := addRoute(topo.MetroNode(i, 0), topo.MetroNode(dst, opt.RingSize/2)); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// MetroResult summarizes one metro run.
type MetroResult struct {
	Shards       int
	Nodes, Links int
	Sessions     int
	CutLinks     int
	// Lookahead is the conservative window length, seconds (+Inf when
	// nothing is cut).
	Lookahead float64
	// Crossings counts cross-shard packet handoffs.
	Crossings int64
	// EventsFired sums fired events over all engines.
	EventsFired        int64
	Emitted, Delivered int64
	MaxDelay           float64
	// Tripped is the watchdog trip reason ("" for a full drain).
	Tripped string
}

// Format renders the result as deterministic text.
func (r *MetroResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Metro: %d switches, %d links, %d sessions, shards=%d",
		r.Nodes, r.Links, r.Sessions, r.Shards)
	if r.Shards > 1 {
		fmt.Fprintf(&b, " (lookahead %.3g s, %d cut links, %d crossings)",
			r.Lookahead, r.CutLinks, r.Crossings)
	}
	fmt.Fprintf(&b, "\n  emitted %d, delivered %d, max delay %.6g s, %d events fired\n",
		r.Emitted, r.Delivered, r.MaxDelay, r.EventsFired)
	if r.Tripped != "" {
		fmt.Fprintf(&b, "  WATCHDOG: %s\n", r.Tripped)
	}
	return b.String()
}

// Run executes the planned workload once and returns its summary.
// Deterministic: the same plan and seed produce identical results at
// every shard count.
func (p *MetroPlan) Run() (*MetroResult, error) {
	opt := p.opt
	g, err := topo.Metro(p.cfg)
	if err != nil {
		return nil, err
	}
	rt, err := shard.New(shard.Config{
		Shards: opt.Shards,
		LMax:   CellBits,
		Graph:  g,
		Disc: func(l *topo.Link) network.Discipline {
			return core.New(core.Config{Capacity: l.Capacity, LMax: CellBits})
		},
		Metrics: opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	links := g.Links()
	res := &MetroResult{
		Shards: opt.Shards,
		Nodes:  g.NodeCount(), Links: len(links), Sessions: len(p.routes),
		CutLinks: rt.Part.CutLinks, Lookahead: rt.Part.Lookahead,
	}
	r := rng.New(opt.Seed)
	var views []*shard.SessionView
	for i, route := range p.routes {
		rl := make([]*topo.Link, len(route))
		for j, li := range route {
			rl[j] = links[li]
		}
		v, err := rt.AddSession(shard.SessionPlan{
			ID: i + 1, Rate: VoiceRate,
			Links: rl, Cfgs: make([]network.SessionPort, len(rl)),
			Source: NewOnOff(AOffValues[i%len(AOffValues)], r.Split()),
		})
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	for _, v := range views {
		v.Start(0, opt.Duration)
	}
	rt.Run()
	res.Tripped = rt.Tripped()
	res.Crossings = rt.Crossed()
	if opt.Metrics {
		res.EventsFired = rt.MergedRegistry().EngineCounters().Fired
	}
	for _, v := range views {
		res.Emitted += v.First().Emitted
		res.Delivered += v.Last().Delivered
		if d := v.Last().Delays.Max(); d > res.MaxDelay {
			res.MaxDelay = d
		}
	}
	if math.IsInf(res.Lookahead, 1) {
		res.Lookahead = 0
	}
	return res, nil
}

// RunMetro plans and runs the metro workload in one call.
func RunMetro(opt MetroOptions) (*MetroResult, error) {
	p, err := PlanMetro(opt)
	if err != nil {
		return nil, err
	}
	return p.Run()
}
