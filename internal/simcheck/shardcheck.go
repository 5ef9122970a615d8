package simcheck

import (
	"encoding/json"
	"fmt"
	"sort"

	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/shard"
	"leaveintime/internal/topo"
	"leaveintime/internal/trace"
)

// shardRun is everything the invariance battery compares between two
// shard counts of the same scenario: canonical trace, per-session
// results, the online checker's violations, and the merged telemetry.
type shardRun struct {
	events     []trace.Event
	sessions   []sessResult
	violations []Violation
	snapshot   []byte
	tripped    string
}

// runShardedScenario runs the scenario under exact Leave-in-Time on
// the conservative-parallel runtime with the given shard count. It is
// the sharded counterpart of runScenario, trimmed to what the
// invariance battery compares (no buffer probes or limits, no fault
// plan and no RELEASE pass — those are serial-battery concerns).
func runShardedScenario(sc *Case, shards int, opt Options) (*shardRun, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !sc.Faults.Empty() {
		return nil, fmt.Errorf("simcheck: fault plans are not supported under sharding")
	}
	spec := litSpec(false)
	g, err := sc.Graph()
	if err != nil {
		return nil, err
	}

	// One violation sink per link, merged in global link order after
	// the run: shard workers may detect violations concurrently, so
	// they must not share a slice, and per-link sinks make the merged
	// order partition-independent. Link i of the graph is server i.
	links := g.Links()
	outs := make([][]Violation, len(links))
	linkIdx := make(map[*topo.Link]int, len(links))
	byName := make(map[string]*topo.Link, len(links))
	for i, l := range links {
		linkIdx[l] = i
		byName[sc.Servers[i].Name] = l
	}

	recs := make([]*trace.Recorder, shards)
	rt, err := shard.New(shard.Config{
		Shards: shards,
		LMax:   sc.LMax,
		Graph:  g,
		Disc: func(l *topo.Link) network.Discipline {
			i := linkIdx[l]
			return spec.checked(sc, &sc.Servers[i], &outs[i])
		},
		Metrics:   true,
		PoolDebug: true,
		Tracer:    func(i int) trace.Tracer { recs[i] = &trace.Recorder{}; return recs[i] },
		Watchdog:  opt.watchdog(sc),
	})
	if err != nil {
		return nil, err
	}

	adm, err := sc.Controllers()
	if err != nil {
		return nil, err
	}
	stream := rng.New(sc.Seed)
	res := &shardRun{}
	type built struct {
		view *shard.SessionView
		sr   sessResult
	}
	var builds []built
	for i := range sc.Sessions {
		def := &sc.Sessions[i]
		ad, err := replayAdmission(sc, adm, def)
		if err != nil {
			res.violations = append(res.violations, Violation{
				Check: "admission-replay", Discipline: spec.name,
				Session: def.ID, Detail: err.Error(),
			})
			continue
		}
		src, err := def.BuildSource(stream)
		if err != nil {
			return nil, err
		}
		plan := shard.SessionPlan{
			ID: def.ID, Rate: def.Rate, JitterControl: def.JitterControl,
			Cfgs: ad.cfgs, Source: src,
		}
		for _, name := range def.Route {
			plan.Links = append(plan.Links, byName[name])
		}
		v, err := rt.AddSession(plan)
		if err != nil {
			return nil, err
		}
		builds = append(builds, built{view: v, sr: sessResult{Def: def, Hops: len(ad.hops), MinLinkCap: ad.minCap}})
	}
	for _, b := range builds {
		b.view.Start(0, sc.Duration)
	}
	rt.Run()
	res.tripped = rt.Tripped()

	for _, b := range builds {
		b.sr.Emitted = b.view.First().Emitted
		last := b.view.Last()
		b.sr.Delivered = last.Delivered
		if last.Delays.Count() > 0 {
			b.sr.MaxDelay = last.Delays.Max()
			b.sr.Jitter = last.Delays.Jitter()
		}
		res.sessions = append(res.sessions, b.sr)
	}
	for _, out := range outs {
		res.violations = append(res.violations, out...)
	}
	for _, rec := range recs {
		if rec != nil {
			res.events = append(res.events, rec.Events...)
		}
	}
	trace.CanonicalSort(res.events)
	res.snapshot, err = json.Marshal(rt.MergedRegistry().Snapshot(sc.Duration))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sortViolations puts a violation list into a canonical order so lists
// assembled from differently-partitioned runs compare field by field.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		switch {
		case a.Check != b.Check:
			return a.Check < b.Check
		case a.Port != b.Port:
			return a.Port < b.Port
		case a.Session != b.Session:
			return a.Session < b.Session
		default:
			return a.Detail < b.Detail
		}
	})
}

// CheckShardInvariance generates the seed's scenario and runs it under
// exact Leave-in-Time at shards=1 and at the given shard count,
// demanding byte-identical results: canonical traces, per-session
// statistics, checker violation sets, and merged telemetry snapshots.
// Any divergence is a "shard-invariance" violation naming the first
// differing item. The report is deterministic in (seed, shards).
//
// Fault plans are out of scope: injected faults address one engine and
// one network, so the battery runs the seed's clean case only.
func CheckShardInvariance(seed uint64, shards int, opt Options) *SeedReport {
	sc := Generate(seed)
	rep := newReport(&sc)
	defer func() {
		if r := recover(); r != nil {
			rep.add(Violation{Check: "panic", Detail: fmt.Sprint(r)})
		}
	}()
	if shards < 2 {
		rep.add(Violation{Check: "shard-invariance", Detail: fmt.Sprintf("comparison needs at least 2 shards, got %d", shards)})
		return rep
	}
	base, err := runShardedScenario(&sc, 1, opt)
	if err != nil {
		rep.add(Violation{Check: "build", Discipline: "lit", Detail: err.Error()})
		return rep
	}
	run, err := runShardedScenario(&sc, shards, opt)
	if err != nil {
		rep.add(Violation{Check: "build", Discipline: "lit", Detail: err.Error()})
		return rep
	}
	rep.Disciplines = append(rep.Disciplines, summaryOf("lit/shards=1", base), summaryOf(fmt.Sprintf("lit/shards=%d", shards), run))

	if base.tripped != run.tripped {
		rep.add(Violation{Check: "shard-invariance", Discipline: "lit",
			Detail: fmt.Sprintf("watchdog: shards=1 %q, shards=%d %q", base.tripped, shards, run.tripped)})
		return rep
	}
	if base.tripped != "" {
		// Both tripped identically: partial state is compared anyway —
		// the trip point is deterministic per engine, but a sharded run
		// trips per shard, so only full drains are comparable.
		rep.add(Violation{Check: "watchdog", Discipline: "lit", Detail: base.tripped})
		return rep
	}

	// Per-session statistics, bit-for-bit.
	for i := range base.sessions {
		a, b := base.sessions[i], run.sessions[i]
		if a.Emitted != b.Emitted || a.Delivered != b.Delivered || a.MaxDelay != b.MaxDelay || a.Jitter != b.Jitter {
			rep.add(Violation{Check: "shard-invariance", Discipline: "lit", Session: a.Def.ID,
				Detail: fmt.Sprintf("session stats diverge: shards=1 {em=%d dl=%d max=%.17g jit=%.17g}, shards=%d {em=%d dl=%d max=%.17g jit=%.17g}",
					a.Emitted, a.Delivered, a.MaxDelay, a.Jitter, shards, b.Emitted, b.Delivered, b.MaxDelay, b.Jitter)})
		}
	}

	// Checker violation sets, canonically ordered.
	sortViolations(base.violations)
	sortViolations(run.violations)
	if len(base.violations) != len(run.violations) {
		rep.add(Violation{Check: "shard-invariance", Discipline: "lit",
			Detail: fmt.Sprintf("violation sets diverge: shards=1 has %d, shards=%d has %d", len(base.violations), shards, len(run.violations))})
	} else {
		for i := range base.violations {
			if base.violations[i] != run.violations[i] {
				rep.add(Violation{Check: "shard-invariance", Discipline: "lit",
					Detail: fmt.Sprintf("violation %d diverges: shards=1 %+v, shards=%d %+v", i, base.violations[i], shards, run.violations[i])})
				break
			}
		}
	}

	// Canonical traces, event for event.
	if len(base.events) != len(run.events) {
		rep.add(Violation{Check: "shard-invariance", Discipline: "lit",
			Detail: fmt.Sprintf("trace lengths diverge: shards=1 has %d events, shards=%d has %d", len(base.events), shards, len(run.events))})
	} else {
		for i := range base.events {
			if base.events[i] != run.events[i] {
				rep.add(Violation{Check: "shard-invariance", Discipline: "lit",
					Detail: fmt.Sprintf("canonical trace diverges at event %d: shards=1 %+v, shards=%d %+v", i, base.events[i], shards, run.events[i])})
				break
			}
		}
	}

	// Merged telemetry snapshots, byte for byte.
	if string(base.snapshot) != string(run.snapshot) {
		rep.add(Violation{Check: "shard-invariance", Discipline: "lit",
			Detail: fmt.Sprintf("merged telemetry snapshots diverge (shards=1 vs shards=%d)", shards)})
	}
	return rep
}

func summaryOf(name string, r *shardRun) DiscSummary {
	s := DiscSummary{Name: name}
	for _, sr := range r.sessions {
		s.Emitted += sr.Emitted
		s.Delivered += sr.Delivered
	}
	return s
}
