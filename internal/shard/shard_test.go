package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/topo"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// testDisc builds the Leave-in-Time discipline for one link.
func mustMetro(tb testing.TB, cfg topo.MetroConfig) *topo.Graph {
	tb.Helper()
	g, err := topo.Metro(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func testDisc(l *topo.Link) network.Discipline {
	return core.New(core.Config{Capacity: l.Capacity, LMax: cellBits})
}

const cellBits = 424

// testPlan is one session of the equivalence workload: a route across
// the metro plus its traffic.
type testPlan struct {
	id       int
	from, to string
	rate     float64
	src      func() traffic.Source
}

// testWorkload builds routes that cross rings (and therefore shards)
// in both directions, plus intra-ring traffic, with a mix of
// deterministic and ON-OFF sources.
func testWorkload(cfg topo.MetroConfig) []testPlan {
	var plans []testPlan
	id := 0
	for i := 0; i < cfg.Rings; i++ {
		i := i
		next := (i + 1) % cfg.Rings
		id++
		plans = append(plans, testPlan{
			id: id, from: topo.MetroNode(i, 0), to: topo.MetroNode(next, cfg.RingSize-1),
			rate: 32e3,
			src: func() traffic.Source {
				return &traffic.Deterministic{Interval: 0.01325 * (1 + 0.1*float64(i)), Length: cellBits}
			},
		})
		id++
		seed := uint64(1000 + i)
		plans = append(plans, testPlan{
			id: id, from: topo.MetroHub(i), to: topo.MetroNode(i, cfg.RingSize-1),
			rate: 32e3,
			src: func() traffic.Source {
				return &traffic.OnOff{T: 0.01325, Length: cellBits, MeanOn: 0.352, MeanOff: 0.0391, Rng: rng.New(seed)}
			},
		})
	}
	return plans
}

type runResult struct {
	events    []trace.Event
	delivered []int64
	emitted   []int64
	delays    []float64 // per session: count, min, max, mean flattened
	snapshot  []byte
}

func sessionCfgs(links []*topo.Link) []network.SessionPort {
	// VirtualClock special case d = L/r (nil D): no admission needed,
	// identical at every node.
	return make([]network.SessionPort, len(links))
}

// runSerial executes the workload on one engine via topo.Graph.Build —
// the pre-existing serial path, no shard runtime involved.
func runSerial(t *testing.T, cfg topo.MetroConfig, dur float64) runResult {
	t.Helper()
	g := mustMetro(t, cfg)
	sim := event.New()
	net := network.New(sim, cellBits)
	reg := metrics.NewRegistry()
	net.EnableMetrics(reg)
	rec := &trace.Recorder{}
	net.Tracer = rec
	if err := g.Build(net, testDisc); err != nil {
		t.Fatal(err)
	}
	var sessions []*network.Session
	for _, pl := range testWorkload(cfg) {
		links, err := g.RouteLinks(pl.from, pl.to)
		if err != nil {
			t.Fatal(err)
		}
		route := make([]*network.Port, len(links))
		for i, l := range links {
			route[i] = l.Port
		}
		s := net.AddSession(pl.id, pl.rate, false, route, sessionCfgs(links), pl.src())
		s.Start(0, dur)
		sessions = append(sessions, s)
	}
	sim.RunAll()
	res := runResult{events: rec.Events}
	trace.CanonicalSort(res.events)
	for _, s := range sessions {
		res.delivered = append(res.delivered, s.Delivered)
		res.emitted = append(res.emitted, s.Emitted)
		res.delays = append(res.delays, float64(s.Delays.Count()), s.Delays.Min(), s.Delays.Max(), s.Delays.Mean())
	}
	return res
}

// runSharded executes the same workload through the shard runtime.
func runSharded(t *testing.T, cfg topo.MetroConfig, dur float64, shards, workers int) runResult {
	t.Helper()
	g := mustMetro(t, cfg)
	recs := make([]*trace.Recorder, shards)
	rt, err := New(Config{
		Shards: shards, LMax: cellBits, Graph: g, Disc: testDisc,
		Metrics: true, PoolDebug: true, Workers: workers,
		Tracer: func(i int) trace.Tracer { recs[i] = &trace.Recorder{}; return recs[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range testWorkload(cfg) {
		links, err := g.RouteLinks(pl.from, pl.to)
		if err != nil {
			t.Fatal(err)
		}
		v, err := rt.AddSession(SessionPlan{
			ID: pl.id, Rate: pl.rate, Links: links, Cfgs: sessionCfgs(links), Source: pl.src(),
		})
		if err != nil {
			t.Fatal(err)
		}
		v.Start(0, dur)
	}
	rt.Run()
	if r := rt.Tripped(); r != "" {
		t.Fatalf("watchdog tripped: %s", r)
	}
	var res runResult
	for _, rec := range recs {
		if rec != nil {
			res.events = append(res.events, rec.Events...)
		}
	}
	trace.CanonicalSort(res.events)
	for _, v := range rt.sessions {
		res.delivered = append(res.delivered, v.Last().Delivered)
		res.emitted = append(res.emitted, v.First().Emitted)
		d := &v.Last().Delays
		res.delays = append(res.delays, float64(d.Count()), d.Min(), d.Max(), d.Mean())
	}
	snap, err := json.Marshal(rt.MergedRegistry().Snapshot(dur))
	if err != nil {
		t.Fatal(err)
	}
	res.snapshot = snap
	return res
}

// TestShardedMatchesSerial is the core equivalence check: the same
// workload, run serially and at several shard counts, produces
// byte-identical canonical traces and identical per-session results.
func TestShardedMatchesSerial(t *testing.T) {
	cfg := topo.DefaultMetro(4, 2)
	const dur = 0.5
	serial := runSerial(t, cfg, dur)
	if len(serial.events) == 0 {
		t.Fatal("serial run produced no trace events")
	}
	min := serial.delivered[0]
	for _, d := range serial.delivered {
		if d < min {
			min = d
		}
	}
	if min == 0 {
		t.Fatal("a session delivered nothing; workload too short")
	}

	var snap1 []byte
	for _, shards := range []int{1, 2, 4} {
		sh := runSharded(t, cfg, dur, shards, 0)
		if !reflect.DeepEqual(serial.delivered, sh.delivered) {
			t.Fatalf("shards=%d: delivered %v, serial %v", shards, sh.delivered, serial.delivered)
		}
		if !reflect.DeepEqual(serial.emitted, sh.emitted) {
			t.Fatalf("shards=%d: emitted %v, serial %v", shards, sh.emitted, serial.emitted)
		}
		if !reflect.DeepEqual(serial.delays, sh.delays) {
			t.Fatalf("shards=%d: delay stats diverge\n got %v\nwant %v", shards, sh.delays, serial.delays)
		}
		if len(sh.events) != len(serial.events) {
			t.Fatalf("shards=%d: %d trace events, serial %d", shards, len(sh.events), len(serial.events))
		}
		for i := range sh.events {
			if sh.events[i] != serial.events[i] {
				t.Fatalf("shards=%d: canonical trace diverges at %d:\n got %+v\nwant %+v",
					shards, i, sh.events[i], serial.events[i])
			}
		}
		if shards == 1 {
			snap1 = sh.snapshot
		} else if string(sh.snapshot) != string(snap1) {
			t.Fatalf("shards=%d: merged snapshot differs from shards=1\n got %s\nwant %s",
				shards, sh.snapshot, snap1)
		}
	}
}

// TestShardedWorkerCountInvariant pins the determinism contract against
// goroutine scheduling: the worker count must not change a single byte.
func TestShardedWorkerCountInvariant(t *testing.T) {
	cfg := topo.DefaultMetro(4, 2)
	const dur = 0.3
	base := runSharded(t, cfg, dur, 4, 1)
	for _, workers := range []int{2, 4} {
		got := runSharded(t, cfg, dur, 4, workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
	}
}

// TestShardedSeedBattery sweeps shard counts over several ON-OFF seeds
// on a larger metro: a cheap randomized-equivalence net.
func TestShardedSeedBattery(t *testing.T) {
	cfg := topo.DefaultMetro(6, 2)
	const dur = 0.2
	for seed := 0; seed < 3; seed++ {
		// Vary the workload by shifting session IDs into a fresh seed
		// range (testWorkload derives ON-OFF seeds from ring indices;
		// runs differ across dur tweaks instead).
		d := dur + 0.05*float64(seed)
		serial := runSerial(t, cfg, d)
		sh := runSharded(t, cfg, d, 3, 0)
		if !reflect.DeepEqual(serial.delivered, sh.delivered) || !reflect.DeepEqual(serial.delays, sh.delays) {
			t.Fatalf("seed %d: sharded diverges from serial", seed)
		}
		if len(sh.events) != len(serial.events) {
			t.Fatalf("seed %d: event counts diverge", seed)
		}
		for i := range sh.events {
			if sh.events[i] != serial.events[i] {
				t.Fatalf("seed %d: canonical trace diverges at %d", seed, i)
			}
		}
	}
}

// TestShardedPoolBalance checks the merged pool view: live packets zero
// after drain, at any shard count, with pool debug on (which panics on
// double put/get inside each shard).
func TestShardedPoolBalance(t *testing.T) {
	cfg := topo.DefaultMetro(4, 2)
	for _, shards := range []int{1, 2, 4} {
		sh := runSharded(t, cfg, 0.2, shards, 0)
		var snap metrics.Snapshot
		if err := json.Unmarshal(sh.snapshot, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Pool.Taken != snap.Pool.Released {
			t.Fatalf("shards=%d: pool taken %d != released %d", shards, snap.Pool.Taken, snap.Pool.Released)
		}
	}
}

func TestRuntimeRejectsBadConfig(t *testing.T) {
	g := mustMetro(t, topo.DefaultMetro(2, 1))
	if _, err := New(Config{Shards: 0, LMax: cellBits, Graph: g, Disc: testDisc}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := New(Config{Shards: 2, LMax: cellBits, Disc: testDisc}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestRuntimeWatchdog(t *testing.T) {
	cfg := topo.DefaultMetro(2, 1)
	g := mustMetro(t, cfg)
	rt, err := New(Config{
		Shards: 2, LMax: cellBits, Graph: g, Disc: testDisc,
		Watchdog: event.Watchdog{MaxEvents: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	links, err := g.RouteLinks(topo.MetroNode(0, 0), topo.MetroNode(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.AddSession(SessionPlan{
		ID: 1, Rate: 32e3, Links: links, Cfgs: sessionCfgs(links),
		Source: &traffic.Deterministic{Interval: 0.001, Length: cellBits},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Segments) != 2 {
		t.Fatalf("route should split into 2 segments, got %d", len(v.Segments))
	}
	v.Start(0, math.Inf(1))
	rt.Run()
	if rt.Tripped() == "" {
		t.Fatal("watchdog never tripped on an unbounded source")
	}
}

// TestRuntimeFastForward checks the idle-window fast-forward: a source
// that emits sparsely relative to the lookahead window must still
// drain, without the coordinator spinning one barrier per window.
func TestRuntimeFastForward(t *testing.T) {
	cfg := topo.DefaultMetro(2, 1)
	g := mustMetro(t, cfg)
	rt, err := New(Config{Shards: 2, LMax: cellBits, Graph: g, Disc: testDisc})
	if err != nil {
		t.Fatal(err)
	}
	links, err := g.RouteLinks(topo.MetroNode(0, 0), topo.MetroNode(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// One packet per simulated second against a 200 us window: 5000
	// windows per packet if the loop cannot skip ahead.
	v, err := rt.AddSession(SessionPlan{
		ID: 1, Rate: 32e3, Links: links, Cfgs: sessionCfgs(links),
		Source: &traffic.Deterministic{Interval: 1.0, Length: cellBits},
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Start(0, 5.0)
	rt.Run()
	if v.Last().Delivered < 5 {
		t.Fatalf("delivered %d, want >= 5", v.Last().Delivered)
	}
}

// Benchmark comparing a serial run to the sharded runtime at the same
// shard count on this machine (one core: expect parity, not speedup;
// the interesting number is the synchronization overhead).
func BenchmarkMetroSharded(b *testing.B) {
	cfg := topo.DefaultMetro(4, 2)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mustMetro(b, cfg)
				rt, err := New(Config{Shards: shards, LMax: cellBits, Graph: g, Disc: testDisc})
				if err != nil {
					b.Fatal(err)
				}
				for _, pl := range testWorkload(cfg) {
					links, err := g.RouteLinks(pl.from, pl.to)
					if err != nil {
						b.Fatal(err)
					}
					v, err := rt.AddSession(SessionPlan{ID: pl.id, Rate: pl.rate, Links: links, Cfgs: sessionCfgs(links), Source: pl.src()})
					if err != nil {
						b.Fatal(err)
					}
					v.Start(0, 0.5)
				}
				rt.Run()
			}
		})
	}
}
