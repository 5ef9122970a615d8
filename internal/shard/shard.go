// Package shard runs one simulated network as several cooperating
// event engines — conservative-parallel discrete-event simulation over
// a partition of the topology.
//
// # Model
//
// Graph.Partition (internal/topo) assigns every node to a shard; each
// shard owns a full simulation stack — event engine, network, slab
// packet pool, and (optionally) a metrics registry and tracer — so
// shards share no mutable state. A port lives in the shard of its
// transmitting node. A session whose route crosses shards is split
// into contiguous per-shard segments: each segment is an ordinary
// network.Session in its shard (same ID, Session.SetHopOffset preserving
// global hop numbers), the first segment holds the source, the last
// one the delivery statistics, and every non-final segment forwards
// finished packets through its Session.SetForward hook into the
// runtime's outbox.
//
// # Synchronization
//
// Shards advance in lockstep windows of length L = the partition's
// lookahead, the minimum propagation delay over cut links. Within a
// window [W, W+L) every shard runs its local events independently
// (Simulator.RunBefore); at the barrier the runtime drains the
// outboxes and schedules each crossing on its destination engine. A
// packet handed off at transmission-finish f in [W, W+L) arrives at
// f + gamma >= W+L — always at or after the next window boundary — so
// no shard ever receives an event for its past: the classic
// conservative (null-message-free, barrier-synchronized) guarantee.
//
// # Determinism
//
// Same seed, same shard count — byte-identical results, regardless of
// worker count or goroutine scheduling: each shard's engine is
// deterministic and crossings carry explicit ordering stamps. Stronger,
// results are identical across shard *counts*, including one, because
// every event's engine key is a pure function of the simulated
// history: link deliveries (and their cross-shard replacements) are
// stamped (arrival time, finish time, global port ID | transmit
// count) — see network.Port.SetTieBase — and local events inherit
// their serial relative order. The only partition-dependent
// observables are per-engine capacity gauges (heap high-water) and
// the per-pool split of packet counters; MergedRegistry folds those
// into a canonical cross-shard view.
//
// Injected faults and mid-run churn (internal/faults, signaling) are
// not supported under sharding: fault plans address one engine and
// one network. Gate them to the serial path.
package shard

import (
	"fmt"
	"math"

	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/topo"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// Config describes a sharded simulation to build.
type Config struct {
	// Shards is the shard count; 1 is valid (one engine, no barriers).
	Shards int
	// LMax is the network-wide maximum packet length in bits.
	LMax float64
	// Graph is the topology; the runtime materializes its ports across
	// the shards (the graph must not have been Built).
	Graph *topo.Graph
	// Disc creates the service discipline for one link, exactly as
	// topo.Graph.Build takes it.
	Disc topo.DisciplineFactory

	// Metrics attaches one registry per shard (see Shard.Reg and
	// Runtime.MergedRegistry).
	Metrics bool
	// PoolDebug enables per-packet ownership tracking in every shard's
	// pool.
	PoolDebug bool
	// Tracer, when non-nil, supplies a per-shard tracer (it must not
	// share mutable state across shards — one recorder per shard).
	Tracer func(shard int) trace.Tracer
	// Watchdog, when non-zero, arms each shard's engine with these
	// budgets. MaxEvents is per shard under sharding.
	Watchdog event.Watchdog
	// Workers caps the goroutines driving shards: 0 picks
	// min(Shards, GOMAXPROCS), 1 runs every shard inline on the
	// caller's goroutine (no synchronization overhead — the right
	// choice on one core), larger values shard the shards round-robin.
	Workers int
}

// Shard is one partition's simulation stack.
type Shard struct {
	Index int
	Sim   *event.Simulator
	Net   *network.Network
	// Reg is the shard's metrics registry when Config.Metrics was set.
	Reg *metrics.Registry
}

// crossing is one packet in transit between shards, parked in the
// producing shard's outbox until the window barrier.
type crossing struct {
	h      network.Handoff
	arrive float64
	dst    int
	port   *network.Port
}

// Runtime is a built sharded simulation.
type Runtime struct {
	cfg  Config
	Part *topo.Partition
	// Shards holds every shard's stack, indexed by shard.
	Shards []*Shard

	// outbox[s] collects shard s's crossings during a window; only
	// shard s's worker appends, and only the coordinator (between
	// barriers) drains. crossed totals the crossings over the run.
	outbox  [][]crossing
	crossed int64

	sessions []*SessionView
}

// New builds the sharded simulation: partitions the graph, creates
// one stack per shard, and materializes every link's port in the
// shard of its transmitting node (in global link order, with the
// port's canonical tie base pinned to its global link index).
func New(cfg Config) (*Runtime, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count must be at least 1, got %d", cfg.Shards)
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("shard: config needs a graph")
	}
	part, err := cfg.Graph.Partition(cfg.Shards)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, Part: part, outbox: make([][]crossing, cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		sh := &Shard{Index: i, Sim: event.New()}
		sh.Net = network.New(sh.Sim, cfg.LMax)
		if cfg.PoolDebug {
			sh.Net.SetPoolDebug(true)
		}
		if cfg.Metrics {
			sh.Reg = metrics.NewRegistry()
			sh.Net.EnableMetrics(sh.Reg)
		}
		if cfg.Tracer != nil {
			sh.Net.Tracer = cfg.Tracer(i)
		}
		if cfg.Watchdog != (event.Watchdog{}) {
			sh.Sim.SetWatchdog(cfg.Watchdog)
		}
		rt.Shards = append(rt.Shards, sh)
	}
	for i, l := range cfg.Graph.Links() {
		if l.Port != nil {
			return nil, fmt.Errorf("shard: graph already built")
		}
		sh := rt.Shards[part.Assign[l.From]]
		l.Port = sh.Net.NewPort(fmt.Sprintf("%s->%s", l.From, l.To), l.Capacity, l.Gamma, cfg.Disc(l))
		l.Port.SetTieBase(i)
	}
	return rt, nil
}

// SessionPlan is one session's global description, mirroring
// network.AddSession but in terms of the route's links.
type SessionPlan struct {
	ID            int
	Rate          float64
	JitterControl bool
	// Links is the global route; Cfgs the per-hop configuration
	// (len(Cfgs) == len(Links)), as admission produced it.
	Links []*topo.Link
	Cfgs  []network.SessionPort
	// Source feeds the first segment; a nil Source emits nothing.
	Source traffic.Source
}

// SessionView is a session established across shards: its per-shard
// segments in route order. The first segment emits, the last delivers.
type SessionView struct {
	ID       int
	Segments []*network.Session
}

// First returns the emitting segment (source, Emitted counter).
func (v *SessionView) First() *network.Session { return v.Segments[0] }

// Last returns the delivering segment (Delivered, Delays, histogram,
// OnDeliver).
func (v *SessionView) Last() *network.Session { return v.Segments[len(v.Segments)-1] }

// Start schedules the session's source, exactly like Session.Start.
func (v *SessionView) Start(t0, stopEmit float64) { v.First().Start(t0, stopEmit) }

// AddSession establishes the session: splits its route into per-shard
// segments, registers each as a network.Session in its shard, and
// wires the cross-shard forwarding hooks.
func (rt *Runtime) AddSession(plan SessionPlan) (*SessionView, error) {
	if len(plan.Links) == 0 {
		return nil, fmt.Errorf("shard: session %d has an empty route", plan.ID)
	}
	if len(plan.Cfgs) != len(plan.Links) {
		return nil, fmt.Errorf("shard: session %d has %d cfgs for %d hops", plan.ID, len(plan.Cfgs), len(plan.Links))
	}
	shardOf := func(l *topo.Link) int { return rt.Part.Assign[l.From] }
	v := &SessionView{ID: plan.ID}
	for start := 0; start < len(plan.Links); {
		s := shardOf(plan.Links[start])
		end := start + 1
		for end < len(plan.Links) && shardOf(plan.Links[end]) == s {
			end++
		}
		ports := make([]*network.Port, end-start)
		for i, l := range plan.Links[start:end] {
			if l.Port == nil {
				return nil, fmt.Errorf("shard: session %d routed over unbuilt link %s->%s", plan.ID, l.From, l.To)
			}
			ports[i] = l.Port
		}
		var src traffic.Source
		if start == 0 {
			src = plan.Source
		}
		seg := rt.Shards[s].Net.AddSession(plan.ID, plan.Rate, plan.JitterControl, ports, plan.Cfgs[start:end], src)
		if start > 0 {
			seg.SetHopOffset(start) // a first segment keeps its hooks unset
		}
		if end < len(plan.Links) {
			next := plan.Links[end]
			dst, tp, from := rt.Part.Assign[next.From], next.Port, s
			seg.SetForward(func(h network.Handoff, finish, arrive float64) {
				rt.outbox[from] = append(rt.outbox[from], crossing{h: h, arrive: arrive, dst: dst, port: tp})
			})
		}
		v.Segments = append(v.Segments, seg)
		start = end
	}
	rt.sessions = append(rt.sessions, v)
	return v, nil
}

// Crossed returns the number of cross-shard packet handoffs performed
// so far (the adjustment MergedRegistry applies to the pool counters).
func (rt *Runtime) Crossed() int64 { return rt.crossed }

// Tripped returns the first (lowest shard index) watchdog trip reason,
// or "" when no shard tripped.
func (rt *Runtime) Tripped() string {
	for _, sh := range rt.Shards {
		if r := sh.Sim.Tripped(); r != "" {
			return r
		}
	}
	return ""
}

// Run executes the simulation to full drain: conservative windows of
// the partition's lookahead, a barrier plus outbox exchange at every
// boundary, terminating when every engine is empty and no crossing is
// in flight. With one shard (or no cut links) it degenerates to
// RunAll per shard with no synchronization at all.
func (rt *Runtime) Run() {
	L := rt.Part.Lookahead
	if len(rt.Shards) == 1 || math.IsInf(L, 1) {
		rt.each(nil, math.Inf(1))
		return
	}
	pool := rt.startWorkers()
	defer pool.stop()

	W := 0.0
	for rt.Tripped() == "" {
		end := W + L
		rt.each(pool, end)
		moved := rt.exchange()
		if moved == 0 {
			// Nothing crossed: if the engines are drained we are done;
			// otherwise fast-forward over the idle gap to the window
			// containing the next event (safe exactly because nothing
			// is in flight between shards).
			tmin := math.Inf(1)
			for _, sh := range rt.Shards {
				if t, ok := sh.Sim.NextTime(); ok && t < tmin {
					tmin = t
				}
			}
			if math.IsInf(tmin, 1) {
				return
			}
			if tmin >= end+L {
				end += math.Floor((tmin-end)/L) * L
			}
		}
		W = end
	}
}

// each runs every shard up to the window boundary (or, with until
// +Inf, to full drain): through the worker pool when one is running,
// inline otherwise.
func (rt *Runtime) each(pool *workerPool, until float64) {
	if pool == nil {
		for _, sh := range rt.Shards {
			runShard(sh, until)
		}
		return
	}
	pool.run(until)
}

func runShard(sh *Shard, until float64) {
	if math.IsInf(until, 1) {
		sh.Sim.RunAll()
		return
	}
	sh.Sim.RunBefore(until)
}

// exchange drains every outbox, scheduling each crossing on its
// destination engine with the upstream ordering stamps. It runs
// between barriers, when every worker is parked.
func (rt *Runtime) exchange() int {
	moved := 0
	for s := range rt.outbox {
		for _, c := range rt.outbox[s] {
			dst := rt.Shards[c.dst]
			cc := c
			dst.Sim.ScheduleStamped(c.arrive, c.h.Sched, c.h.Tie, func() {
				dst.Net.InjectArrival(cc.port, cc.h, cc.arrive)
			})
			moved++
		}
		rt.outbox[s] = rt.outbox[s][:0]
	}
	rt.crossed += int64(moved)
	return moved
}
