package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	lit "leaveintime"
	"leaveintime/internal/admission"
	"leaveintime/internal/calculus"
	"leaveintime/internal/config"
	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/sched"
	"leaveintime/internal/topo"
	"leaveintime/internal/trace"
)

// perLayer lists the rows of a traced run. Every traced run prints all
// of them: the workload asked for runs a quarter of its ops traced, and
// each of the others runs its traceMin ops, because a row is measured
// on the one workload that is its home, whichever workload the run is
// for. README.md says which end-to-end metric each row should move.
var perLayer = []metricDef{
	// home: tandem-voice48
	{"event.fired_per_op", "count"},
	{"event.heap_high_water", "count"},
	{"event.step_self_ns", "ns"},
	{"event.chain_ns_per_event", "ns"},
	{"traffic.next_per_op", "count"},
	{"traffic.next_ns", "ns"},
	{"network.pkt_hops_per_op", "count"},
	{"network.ns_per_pkt_hop", "ns"},
	{"network.drops_per_op", "count"},
	{"network.pool_taken_per_op", "count"},
	{"sched.fcfs_op_ratio", "ratio"},
	{"sched.virtualclock_op_ratio", "ratio"},
	{"sched.wfq_op_ratio", "ratio"},
	{"config.parse_us", "us"},
	{"config.prepare_ms", "ms"},
	{"config.run_ratio", "ratio"},
	{"metrics.on_op_ratio", "ratio"},
	{"metrics.snapshot_us", "us"},
	{"trace.on_op_ratio", "ratio"},
	{"trace.events_per_op", "count"},
	{"scenarios.fig7_sim_s_per_wall_s", "1/s"},
	{"scenarios.fig7_cpu_over_wall", "ratio"},
	// home: tandem-jitter48
	{"core.enqueue_ns", "ns"},
	{"core.dequeue_ns", "ns"},
	{"core.ontransmit_ns", "ns"},
	{"core.regulated_per_op", "count"},
	{"core.queue_high_water", "count"},
	{"core.calendar_op_ratio", "ratio"},
	// home: metro-serial
	{"topo.metro_build_ms", "ms"},
	{"topo.route_us", "us"},
	{"topo.partition_ms", "ms"},
	{"shard.new_ms", "ms"},
	{"shard.add_session_us", "us"},
	{"shard.run_ms", "ms"},
	{"shard.op_ms_s1", "ms"},
	{"shard.op_ms_s2", "ms"},
	{"shard.speedup_x", "ratio"},
	{"shard.cpu_over_wall_s2", "ratio"},
	{"shard.crossings_per_op", "count"},
	{"shard.alloc_kb_per_op_s2", "kB"},
	// home: call-churn
	{"admission.connect_us", "us"},
	{"admission.disconnect_us", "us"},
	{"admission.admit_us_n48", "us"},
	{"admission.admit_us_n4096", "us"},
	{"admission.admitclass_us", "us"},
	{"admission.rejects_per_op", "count"},
	{"sesstab.bytes_per_id_issued", "B"},
	// home: serve-t1
	{"calculus.convolve_ns", "ns"},
	{"calculus.gate_try_ns", "ns"},
	{"serve.setup_rtt_p50_us", "us"},
	{"serve.release_rtt_p50_us", "us"},
	{"serve.reject_rtt_p50_us", "us"},
	{"serve.call_p99_ms", "ms"},
	{"serve.json_us", "us"},
	{"serve.transport_residual_us", "us"},
	{"serve.cores_busy", "ratio"},
	{"serve.open8k_p50_ms", "ms"},
	{"serve.open8k_p99_ms", "ms"},
	{"serve.open8k_late_p99_ms", "ms"},
	// the workload the run is for
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"go.peak_rss_mb", "MB"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// traced is the traced run of one workload.
func traced(w *workload, seed uint64, seconds float64) *result {
	r := newResult(w, seed, seconds, true)
	out := rows{}

	// The workload the run is for goes first, so go.peak_rss_mb is its
	// own and not a later probe's.
	n := max(w.traceMin, scaled(w.ops, seconds)/4)
	tr := newTracer()
	lr, st, dig := w.layers(w, seed, n, tr, r)
	maps.Copy(out, lr)
	out["go.allocs_per_op"] = float64(st.mallocs) / float64(n)
	out["go.gc_cycles_per_op"] = float64(st.gcCycles) / float64(n)
	out["go.gc_pause_ms_per_op"] = float64(st.gcPauseNs) / 1e6 / float64(n)
	out["go.peak_rss_mb"] = peakRSSMB()
	r.Digest = fmt.Sprintf("%016x", dig)
	if path, err := tr.write(w.name); err != nil {
		r.fail(err)
	} else {
		r.notes["bench.trace_overhead_ratio"] = fmt.Sprintf("%d spans in %s", len(tr.spans), path)
	}

	// The same ops untraced: their digest must be the traced one's, and
	// the ratio of the two op times is what tracing costs.
	if inst, err := w.open(seed); err != nil {
		r.fail(err)
	} else {
		un := runOps(w, inst, r, 0, w.traceMin)
		out["bench.trace_overhead_ratio"] = st.p50() / un.p50()
		if d := inst.Digest(); d != dig {
			r.fail(fmt.Errorf("traced digest %016x differs from the untraced %016x", dig, d))
		}
		if err := inst.Close(); err != nil {
			r.fail(err)
		}
	}

	for _, h := range workloads() {
		if h.name != w.name {
			lr, _, _ := h.layers(h, seed, h.traceMin, newTracer(), r)
			maps.Copy(out, lr)
		}
	}
	r.set(perLayer, out)
	r.Correct = r.Failed == 0
	return r
}

// sideOps is how many ops a side probe (another discipline, the config
// document, metrics on) runs; its median is the probe's op time.
func sideOps(n int) int { return min(n, 3) }

// timeOps runs op k times and returns the median, in ms, of the
// durations op reports. Every call counts as one attempted op.
func timeOps(k int, r *result, op func() (time.Duration, error)) float64 {
	ms := make([]float64, k)
	for i := range ms {
		d, err := op()
		ms[i] = float64(d) / 1e6
		r.Attempted++
		if err != nil {
			r.fail(err)
		}
	}
	return median(ms)
}

// whole makes the whole of f the timed part.
func whole(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t := time.Now()
		err := f()
		return time.Since(t), err
	}
}

// tandemProbe is the traced ops of one tandem plus the untraced op of
// the same assembly, whose time is the base of every ratio on that
// tandem.
type tandemProbe struct {
	seed      uint64
	jitter    bool
	st        opStats
	hp        *hopProbe
	tot       map[string]*spanTotals
	dig       uint64
	baseMs    float64
	delivered int64 // by the untraced op
	ports     []metrics.Port
}

func probeTandem(w *workload, seed uint64, jitter bool, n int, tr *tracer, r *result) *tandemProbe {
	inst := &tandemInst{seed: seed, jitter: jitter, tr: tr, probe: &hopProbe{}}
	// The untraced ops all run the first op's sample path, whose digest
	// they must repeat.
	p := &tandemProbe{seed: inst.subSeed(0), jitter: jitter, hp: inst.probe}
	p.st = runOps(w, inst, r, 0, n)
	p.tot, p.dig = tr.totals(), inst.Digest()
	for _, reg := range p.hp.regs {
		p.ports = append(p.ports, reg.PortCounters()...)
	}
	p.baseMs = timeOps(sideOps(n), r, whole(func() error { return p.run(nil, litDisc, nil, true) }))
	return p
}

// run is one untraced op of the tandem assembled with mk. With exact
// it must reproduce the traced digest; other disciplines are not held
// to Leave-in-Time's bounds and only have to deliver.
func (p *tandemProbe) run(reg *metrics.Registry, mk func(float64) network.Discipline, tracer trace.Tracer, exact bool) error {
	t, err := assembleTandem(p.seed, p.jitter, reg, mk, plainSource, plainConnect)
	if err != nil {
		return err
	}
	t.net.Tracer = tracer
	t.run()
	d, err := t.collect(p.jitter)
	if !exact {
		if t.sessions[0].Delivered == 0 {
			return fmt.Errorf("nothing delivered")
		}
		return nil
	}
	p.delivered = 0
	for _, s := range t.sessions {
		p.delivered += s.Delivered
	}
	if err == nil && uint64(d) != p.dig {
		err = fmt.Errorf("assembled digest %016x differs from the traced %016x", uint64(d), p.dig)
	}
	return err
}

func voiceLayers(w *workload, seed uint64, n int, tr *tracer, r *result) (rows, opStats, uint64) {
	p := probeTandem(w, seed, false, n, tr, r)
	k, ops := sideOps(n), float64(n)
	out := rows{}

	var fired, hw, taken, hops, drops int64
	for _, reg := range p.hp.regs {
		e := reg.EngineCounters()
		fired += e.Fired
		hw = max(hw, e.HeapHighWater)
		taken += reg.PoolCounters().Taken
	}
	for _, pc := range p.ports {
		hops += pc.Transmissions
		drops += pc.DroppedPackets + pc.FaultDrops
	}
	hp := p.hp
	inDisc := hp.enqueue.estNs() + hp.dequeue.estNs() + hp.nextEligible.estNs() + hp.onTransmit.estNs()
	out["event.fired_per_op"] = float64(fired) / ops
	out["event.heap_high_water"] = float64(hw)
	// What Step spends outside the decorated calls: the engine's heap
	// and the port's own logic, per fired event.
	if run := p.tot["run"]; run != nil && fired > 0 {
		out["event.step_self_ns"] = (float64(run.total) - inDisc - hp.next.estNs()) / float64(fired)
	}
	out["event.chain_ns_per_event"] = chainNs()
	out["traffic.next_per_op"] = float64(hp.next.n) / ops
	out["traffic.next_ns"] = hp.next.meanNs()
	out["network.pkt_hops_per_op"] = float64(hops) / ops
	// The whole untraced op over its packet-hops: host cost per
	// simulated packet-hop, every layer included.
	out["network.ns_per_pkt_hop"] = p.baseMs * 1e6 / (float64(hops) / ops)
	out["network.drops_per_op"] = float64(drops) / ops
	out["network.pool_taken_per_op"] = float64(taken) / ops

	for _, d := range []struct {
		row string
		mk  func(float64) network.Discipline
	}{
		{"sched.fcfs_op_ratio", func(float64) network.Discipline { return sched.NewFCFS() }},
		{"sched.virtualclock_op_ratio", func(float64) network.Discipline { return sched.NewVirtualClock() }},
		{"sched.wfq_op_ratio", func(c float64) network.Discipline { return sched.NewWFQ(c) }},
	} {
		out[d.row] = timeOps(k, r, whole(func() error { return p.run(nil, d.mk, nil, false) })) / p.baseMs
	}

	var reg *metrics.Registry
	out["metrics.on_op_ratio"] = timeOps(k, r, whole(func() error {
		reg = metrics.NewRegistry()
		return p.run(reg, litDisc, nil, true)
	})) / p.baseMs
	out["metrics.snapshot_us"] = 1e3 * timeOps(100, r, whole(func() error {
		if reg.Snapshot(tandemRun).Engine.Fired == 0 {
			return fmt.Errorf("empty snapshot")
		}
		return nil
	}))
	var rec *trace.Recorder
	out["trace.on_op_ratio"] = timeOps(k, r, whole(func() error {
		// The cap keeps the recorder's memory flat; events past it are
		// still delivered to Trace and counted.
		rec = &trace.Recorder{Cap: 1 << 16}
		return p.run(nil, litDisc, rec, true)
	})) / p.baseMs
	out["trace.events_per_op"] = float64(int64(len(rec.Events)) + rec.Dropped)

	configRows(out, k, p, r)

	// Fig. 7 is the same tandem, sources and discipline at seven loads
	// side by side; only the sweep's fan-out is its own.
	const fig7Run = 10.0
	cpu0, t0 := cpuTime(), time.Now()
	r.Attempted++
	if res := lit.RunFig7(fig7Run, seed); len(res.Rows) != 7 || res.Rows[0].Packets == 0 {
		r.fail(fmt.Errorf("fig7: bad sweep"))
	}
	wall := time.Since(t0)
	out["scenarios.fig7_sim_s_per_wall_s"] = 7 * fig7Run / wall.Seconds()
	out["scenarios.fig7_cpu_over_wall"] = float64(cpuTime()-cpu0) / float64(wall)
	return out, p.st, p.dig
}

// chainNs is the bare engine: one self-rescheduling event, so the heap
// holds a single entry and nothing but Schedule and Step runs.
func chainNs() float64 {
	const events = 200000
	sim := event.New()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < events {
			sim.After(1, tick)
		}
	}
	t0 := time.Now()
	sim.After(1, tick)
	sim.RunAll()
	return float64(time.Since(t0)) / events
}

// configRows runs voice48 as a declarative document. The document
// seeds its sources as buildTandem does, so it must deliver exactly
// what the library op delivers.
func configRows(out rows, k int, p *tandemProbe, r *result) {
	doc := config.Scenario{LMax: cellBits, Duration: tandemRun, Seed: p.seed}
	var route []string
	for h := 1; h <= tandemLen; h++ {
		name := fmt.Sprintf("n%d", h)
		route = append(route, name)
		doc.Servers = append(doc.Servers, config.Server{Name: name, Capacity: t1, Gamma: hopGamma})
	}
	for s := 1; s <= voiceN; s++ {
		doc.Sessions = append(doc.Sessions, config.Session{
			Name: fmt.Sprintf("v%d", s), Rate: voiceRate, Route: route, B0: cellBits,
			Source: config.Source{Kind: "onoff", T: scenarios.OnSpacing, Length: cellBits,
				MeanOn: scenarios.OnMean, MeanOff: voiceAOff},
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		r.fail(err)
		return
	}
	var sc *config.Scenario
	out["config.parse_us"] = 1e3 * timeOps(20, r, whole(func() error {
		sc, err = config.Parse(data)
		return err
	}))
	if sc == nil {
		return
	}
	var runs []*config.Run
	out["config.prepare_ms"] = timeOps(k, r, whole(func() error {
		run, err := sc.Prepare(nil)
		runs = append(runs, run)
		return err
	}))
	runMs := timeOps(k, r, whole(func() error {
		run := runs[0]
		runs = runs[1:]
		if run == nil {
			return fmt.Errorf("config: not prepared")
		}
		run.Start()
		run.RunSlice(tandemRun)
		var got int64
		for _, s := range run.Finish().Sessions {
			got += s.Delivered
			if !s.BoundHolds {
				return fmt.Errorf("config: session %s broke its bound", s.Name)
			}
		}
		if got != p.delivered {
			return fmt.Errorf("config: the document delivered %d packets, the library op %d", got, p.delivered)
		}
		return nil
	}))
	out["config.run_ratio"] = (out["config.prepare_ms"] + runMs) / p.baseMs
}

func jitterLayers(w *workload, seed uint64, n int, tr *tracer, r *result) (rows, opStats, uint64) {
	p := probeTandem(w, seed, true, n, tr, r)
	var regulated, hw int64
	for _, pc := range p.ports {
		regulated += pc.Sched.Regulated
		hw = max(hw, pc.QueueHighWater)
	}
	calendar := timeOps(sideOps(n), r, whole(func() error {
		return p.run(nil, func(c float64) network.Discipline {
			return core.New(core.Config{Capacity: c, LMax: cellBits, Approximate: true})
		}, nil, false)
	}))
	return rows{
		"core.enqueue_ns":        p.hp.enqueue.meanNs(),
		"core.dequeue_ns":        p.hp.dequeue.meanNs(),
		"core.ontransmit_ns":     p.hp.onTransmit.meanNs(),
		"core.regulated_per_op":  float64(regulated) / float64(n),
		"core.queue_high_water":  float64(hw),
		"core.calendar_op_ratio": calendar / p.baseMs,
	}, p.st, p.dig
}

func metroLayers(w *workload, seed uint64, n int, tr *tracer, r *result) (rows, opStats, uint64) {
	inst := &metroInst{seed: seed, tr: tr}
	st := runOps(w, inst, r, 0, n)
	tot := tr.totals()
	out := rows{
		"topo.metro_build_ms":  meanUs(tot, "topo.metro") / 1e3,
		"topo.route_us":        meanUs(tot, "topo.route"),
		"shard.new_ms":         meanUs(tot, "shard.new") / 1e3,
		"shard.add_session_us": meanUs(tot, "shard.add_session"),
		"shard.run_ms":         meanUs(tot, "shard.run") / 1e3,
	}
	k := sideOps(n)
	out["topo.partition_ms"] = timeOps(k, r, func() (time.Duration, error) {
		g, err := topo.Metro(topo.DefaultMetro(metroRings, metroRingSize))
		if err != nil {
			return 0, err
		}
		t := time.Now()
		_, err = g.Partition(2)
		return time.Since(t), err
	})

	// The two-shard run is a row, not a workload: on two CPUs it does
	// not repeat from run to run. Its results must equal one shard's.
	var crossings int64
	planned := func(shards int) func() error {
		plan, err := scenarios.PlanMetro(metroOptions(seed, shards))
		return func() error {
			if err != nil {
				return err
			}
			res, err := plan.Run()
			if err != nil {
				return err
			}
			crossings = res.Crossings
			d, err := metroDigest(res)
			if err == nil && uint64(d) != inst.Digest() {
				err = fmt.Errorf("%d-shard digest %016x differs from the traced %016x", shards, uint64(d), inst.Digest())
			}
			return err
		}
	}
	out["shard.op_ms_s1"] = timeOps(k, r, whole(planned(1)))
	two := planned(2)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	out["shard.op_ms_s2"] = timeOps(k, r, whole(two))
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	out["shard.speedup_x"] = out["shard.op_ms_s1"] / out["shard.op_ms_s2"]
	out["shard.cpu_over_wall_s2"] = float64(cpuTime()-cpu0) / float64(wall)
	out["shard.crossings_per_op"] = float64(crossings)
	out["shard.alloc_kb_per_op_s2"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(k)
	return out, st, inst.Digest()
}

func churnLayers(w *workload, seed uint64, n int, tr *tracer, r *result) (rows, opStats, uint64) {
	out := rows{}
	inst, err := openChurn(seed)
	if err != nil {
		r.Attempted++
		r.fail(err)
		return out, opStats{}, 0
	}
	c := inst.(*churnInst)
	reg := c.sys.EnableMetrics()

	// Live heap across one untraced op: every call gets a new ID, so
	// whatever a layer keeps per ID ever issued shows as growth. The op
	// before it lets tables reach their steady size.
	runOps(w, c, r, 0, 1)
	before := liveHeap()
	runOps(w, c, r, 1, 1)
	out["sesstab.bytes_per_id_issued"] = (float64(liveHeap()) - float64(before)) / float64(standing)

	rejected := reg.AdmissionCounters().AC2.Rejected
	c.tr = tr
	st := runOps(w, c, r, 2, n)
	tot := tr.totals()
	out["admission.connect_us"] = meanUs(tot, "connect")
	out["admission.disconnect_us"] = meanUs(tot, "disconnect")
	out["admission.rejects_per_op"] = float64(reg.AdmissionCounters().AC2.Rejected-rejected) / float64(n)

	// One more member admitted and removed at a standing membership of
	// 47 (a full T1: the tandems) and of 4095 spread over this
	// workload's three classes, the new member in class 1, whose rules
	// sum over all three.
	if p1, err := admission.NewProcedure1(t1, t1Classes); err != nil {
		r.fail(err)
	} else {
		out["admission.admit_us_n48"] = admitUs(r, voiceN-1, 20000, func(id, class int) bool {
			_, err := p1.Admit(voiceSpec(id), 1, admission.Options{PerPacket: true})
			return err == nil
		}, func(id int) { p1.Remove(id) })
	}
	if p2, err := admission.NewProcedure2(oc3, churnClasses); err != nil {
		r.fail(err)
	} else {
		out["admission.admit_us_n4096"] = admitUs(r, 4095, 2000, func(id, class int) bool {
			_, err := p2.Admit(voiceSpec(id), class, admission.Options{PerPacket: true})
			return err == nil
		}, func(id int) { p2.Remove(id) })
	}
	out["admission.admitclass_us"] = admitClassUs(r)
	return out, st, c.Digest()
}

// admitUs admits members 1..n, class by class in turn, then times reps
// admit-and-remove pairs of one more member in class 1.
func admitUs(r *result, n, reps int, admit func(id, class int) bool, remove func(id int)) float64 {
	r.Attempted++
	for id := 1; id <= n; id++ {
		if !admit(id, 1+id%3) {
			r.fail(fmt.Errorf("admission probe: member %d refused", id))
			return 0
		}
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if !admit(n+1, 1) {
			r.fail(fmt.Errorf("admission probe: member %d refused", n+1))
			return 0
		}
		remove(n + 1)
	}
	return float64(time.Since(t0)) / 1e3 / float64(reps)
}

// admitClassUs times the daemon's SETUP path without the daemon: one
// AdmitClass batch of one through the rules and the curve gate at 45
// standing calls, then its release.
func admitClassUs(r *result) float64 {
	r.Attempted++
	p1, err := admission.NewProcedure1(t1, t1Classes)
	if err != nil {
		r.fail(err)
		return 0
	}
	gate := admission.NewCurveGate(calculus.FCFSServer{C: t1, LMax: cellBits}, 0)
	opts := admission.Options{PerPacket: true}
	admit := func(id int) bool {
		_, ok := p1.AdmitClass(gate, []admission.SessionSpec{voiceSpec(id)}, 1, opts)
		return ok
	}
	for id := 1; id <= preloaded; id++ {
		if !admit(id) {
			r.fail(fmt.Errorf("admitclass probe: call %d refused", id))
			return 0
		}
	}
	const reps = 20000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if !admit(preloaded + 1) {
			r.fail(fmt.Errorf("admitclass probe: call %d refused", preloaded+1))
			return 0
		}
		p1.Remove(preloaded + 1)
		gate.Release(voiceRate, cellBits)
	}
	return float64(time.Since(t0)) / 1e3 / reps
}

func serveLayers(w *workload, seed uint64, n int, tr *tracer, r *result) (rows, opStats, uint64) {
	out := rows{}
	inst, err := openServe(seed)
	if err != nil {
		r.Attempted++
		r.fail(err)
		return out, opStats{}, 0
	}
	s := inst.(*serveInst)
	s.tr, s.rtt = tr, &rttLog{}
	st := runOps(w, s, r, 0, n)
	tot := tr.totals()
	// One request's JSON on the client: its encode plus its decode.
	jsonUs := meanUs(tot, "client.encode") + meanUs(tot, "client.decode")
	out["serve.setup_rtt_p50_us"] = median(s.rtt.setup)
	out["serve.release_rtt_p50_us"] = median(s.rtt.release)
	out["serve.reject_rtt_p50_us"] = median(s.rtt.reject)
	out["serve.call_p99_ms"] = quantile(st.durs, 0.99)
	out["serve.json_us"] = jsonUs
	// What is left of a SETUP round trip after the JSON on both sides
	// (the daemon decodes what the client encodes, and the reverse) and
	// the admission decision: HTTP framing, system calls, scheduling.
	out["serve.transport_residual_us"] = out["serve.setup_rtt_p50_us"] - 2*jsonUs - admitClassUs(r)
	out["serve.cores_busy"] = float64(st.cpu) / float64(st.wall)

	s.tr, s.rtt = nil, nil
	lat, late := s.openLoop(r, 8000, openLoopCalls, n)
	out["serve.open8k_p50_ms"] = quantile(lat, 0.5)
	out["serve.open8k_p99_ms"] = quantile(lat, 0.99)
	out["serve.open8k_late_p99_ms"] = quantile(late, 0.99)
	dig := s.Digest()
	if err := s.Close(); err != nil {
		r.fail(err)
	}

	// The curve arithmetic under a SETUP: one min-plus convolution of
	// multi-segment curves through a warm workspace (the operands of
	// benchmarks.Convolve), and one gate evaluation at 45 calls.
	arrival := calculus.Min(calculus.TokenBucket(1.28e6, 16960),
		calculus.MustCurve(cellBits, calculus.Piece{X: 0, Slope: t1}))
	service := calculus.RateLatency(t1, cellBits/t1)
	var ws calculus.Ws
	var conv calculus.Curve
	gate := admission.NewCurveGate(calculus.FCFSServer{C: t1, LMax: cellBits}, 0)
	gate.Commit(preloaded*voiceRate, preloaded*cellBits)
	const reps = 20000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		ws.Convolve(&conv, arrival, service)
	}
	out["calculus.convolve_ns"] = float64(time.Since(t0)) / reps
	t0 = time.Now()
	fits := true
	for i := 0; i < reps; i++ {
		_, ok := gate.Try(voiceRate, cellBits)
		fits = fits && ok
	}
	out["calculus.gate_try_ns"] = float64(time.Since(t0)) / reps
	r.Attempted++
	if !fits || conv.Eval(1) <= 0 {
		r.fail(fmt.Errorf("calculus probe: gate refused or empty convolution"))
	}
	return out, st, dig
}

// openLoop offers calls on a fixed schedule, rate calls a second,
// whether or not earlier ones have returned. The workload's clients
// take the calls in turn, each waiting for its call's due instant, so
// no more than that many connections exist; a call that finds every
// client busy waits, and that wait counts, because latency runs from
// the instant the call was due. It returns each call's latency and how
// late it was sent, in ms, sorted.
func (s *serveInst) openLoop(r *result, rate float64, calls, firstOp int) (lat, late []float64) {
	lat, late = make([]float64, calls), make([]float64, calls)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= calls {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				late[k] = float64(time.Since(due)) / 1e6
				id := preloaded + 1 + firstOp + k
				err := s.setup(nil, id, -1, -1)
				if err == nil {
					err = s.release(nil, id, -1, -1)
				}
				lat[k] = float64(time.Since(due)) / 1e6
				if err != nil {
					mu.Lock()
					r.fail(fmt.Errorf("open loop: %w", err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	r.Attempted += calls
	sort.Float64s(lat)
	sort.Float64s(late)
	return lat, late
}
