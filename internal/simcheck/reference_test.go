package simcheck

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"leaveintime/internal/config"
	"leaveintime/internal/rng"
	"leaveintime/internal/trace"
)

// The reference model of the paper's schedule. For every packet at
// every hop it steps out, from the definitions alone and with plain
// slices, what a Leave-in-Time server must do:
//
//   - eligibility, eqs. 6-8: E = t, or t + A under jitter control, A
//     being the hold carried from the upstream hop;
//   - deadline, eqs. 9-11: F = max{E, K} + d(L), K = max{E, K} + L/r,
//     K starting at the arrival time of the session's first packet,
//     and d the admission rule's affine d(L) (rules 1.3/2.3, 1.3a/2.3a)
//     or procedure 3's fixed d;
//   - non-preemptive service, least deadline first among the eligible
//     packets, ties to the earlier arrival; end = start + L/C;
//   - the hold, eq. 9: A = F + L_MAX/C - end + d_max - d, clamped at 0,
//     d_max being the larger of d(L_MAX) and every d the session has
//     had at the hop; the next hop sees the packet at end + Γ.
//
// Sources are stepped from the document's own generators, so emission
// instants and lengths are inputs, not read off the run. What the model
// does read from the run's trace is the engine's order among events of
// one instant at one port: whether a packet that arrives at the very
// instant a transmission starts was there to be chosen. Every time and
// every stamp is the model's own, and each must equal the run's to the
// bit: the model's arithmetic is the definitions' in the order the
// paper writes them.

// refHop is one packet at one hop.
type refHop struct {
	sess   int // index into the document's sessions
	seq    int64
	hop    int
	length float64
	arrive float64
	hold   float64 // A carried in from the upstream hop
	// stamped at arrival
	elig, dl, d, dMax float64
	order             int // arrival order at the port
	traceIdx          int // index of the run's Arrive event
	// service
	start, end float64
}

// refKey names a packet at a hop in the trace.
type refKey struct {
	session int
	seq     int64
	hop     int
}

// refD is the service parameter the admission rules grant def at a
// server of capacity c: d(L) and d(L_MAX).
func refD(doc *config.Scenario, def *config.Session, c float64) (func(float64) float64, float64) {
	req := def.Request()
	if doc.Proc == 3 {
		return func(float64) float64 { return req.D }, req.D
	}
	proc, classes := max(doc.Proc, 1), doc.Classes
	if len(classes) == 0 {
		proc, classes = 1, []config.Class{{R: c, Sigma: 1}}
	}
	rOf := func(k int) float64 { // R_k, R_0 = 0
		if k == 0 {
			return 0
		}
		if cl := classes[k-1]; cl.RFrac != 0 {
			return cl.RFrac * c
		}
		return classes[k-1].R
	}
	sigmaOf := func(k int) float64 { // sigma_k, sigma_0 = 0
		if k == 0 {
			return 0
		}
		return classes[k-1].Sigma
	}
	j := req.Class
	R, sigma := rOf(j), sigmaOf(j-1) // rule 1.3
	if proc == 2 {
		R, sigma = rOf(j-1), sigmaOf(j) // rule 2.3
	}
	d := func(l float64) float64 { return l*R/(req.Rate*c) + sigma + req.Eps }
	if req.FixedD {
		fixed := d(req.LMax)
		return func(float64) float64 { return fixed }, fixed
	}
	return d, d(req.LMax)
}

// refPortOrder orders the servers so that each comes after every
// server upstream of it on some route; ok is false when the routes
// order them cyclically.
func refPortOrder(doc *config.Scenario) ([]string, bool) {
	indeg := map[string]int{}
	succ := map[string][]string{}
	for _, def := range doc.Sessions {
		for i := 1; i < len(def.Route); i++ {
			succ[def.Route[i-1]] = append(succ[def.Route[i-1]], def.Route[i])
			indeg[def.Route[i]]++
		}
	}
	var order, ready []string
	for _, sv := range doc.Servers {
		if indeg[sv.Name] == 0 {
			ready = append(ready, sv.Name)
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range succ[n] {
			if indeg[m]--; indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	return order, len(order) == len(doc.Servers)
}

// compareReference steps the model over the document and compares it
// with the run's trace, in which session i of the document is network
// session i+1. It returns the number of stamps compared and the first
// disagreements.
func compareReference(doc *config.Scenario, rec *trace.Recorder) (int, []string) {
	var bad []string
	fail := func(format string, args ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	// The run's events by packet-hop, and each port's transmission
	// starts in firing order.
	events := map[refKey]map[trace.Kind]int{}
	starts := map[string][]int{}
	for i, e := range rec.Events {
		if e.Kind == trace.Drop {
			fail("the run dropped session %d seq %d at %s", e.Session, e.Seq, e.Port)
			continue
		}
		k := refKey{e.Session, e.Seq, e.Hop}
		if events[k] == nil {
			events[k] = map[trace.Kind]int{}
		}
		events[k][e.Kind] = i
		if e.Kind == trace.TransmitStart {
			starts[e.Port] = append(starts[e.Port], i)
		}
	}
	order, ok := refPortOrder(doc)
	if !ok {
		return 0, []string{"routes order the servers cyclically"}
	}
	server := map[string]*config.Server{}
	for i := range doc.Servers {
		server[doc.Servers[i].Name] = &doc.Servers[i]
	}

	// Hop 0: every source stepped out from its own generator.
	at := map[string][]*refHop{}
	stream := rng.New(doc.Seed)
	for i := range doc.Sessions {
		def := &doc.Sessions[i]
		src, err := def.BuildSource(stream)
		if err != nil {
			return 0, []string{err.Error()}
		}
		gap, l := src.Next()
		var seq int64
		for t := gap; t <= doc.Duration; t += gap {
			seq++
			at[def.Route[0]] = append(at[def.Route[0]], &refHop{sess: i, seq: seq, length: l, arrive: t})
			gap, l = src.Next()
		}
	}

	compared := 0
	check := func(what string, p *refHop, kind trace.Kind, want float64, read func(trace.Event) float64) {
		idx, ok := events[refKey{p.sess + 1, p.seq, p.hop}][kind]
		if !ok {
			fail("session %d seq %d hop %d: no %s in the run", p.sess+1, p.seq, p.hop, kind)
			return
		}
		compared++
		if got := read(rec.Events[idx]); got != want {
			fail("session %d seq %d hop %d: %s %.17g, model %.17g", p.sess+1, p.seq, p.hop, what, got, want)
		}
	}
	evTime := func(e trace.Event) float64 { return e.Time }

	for _, name := range order {
		sv := server[name]
		pkts := at[name]
		for _, p := range pkts {
			idx, ok := events[refKey{p.sess + 1, p.seq, p.hop}][trace.Arrive]
			if !ok {
				fail("session %d seq %d hop %d: no arrival at %s in the run", p.sess+1, p.seq, p.hop, name)
				return compared, bad
			}
			p.traceIdx = idx
			check("arrival", p, trace.Arrive, p.arrive, evTime)
		}
		// Arrival order: by time, and within one instant as the engine
		// fired the arrivals.
		sort.Slice(pkts, func(a, b int) bool {
			if pkts[a].arrive != pkts[b].arrive {
				return pkts[a].arrive < pkts[b].arrive
			}
			return pkts[a].traceIdx < pkts[b].traceIdx
		})

		// Stamps (eqs. 6-11), each session's reference clock in its
		// own arrival order.
		type clock struct {
			k, dMax float64
			d       func(float64) float64
			started bool
		}
		clocks := map[int]*clock{}
		for n, p := range pkts {
			def := &doc.Sessions[p.sess]
			c := clocks[p.sess]
			if c == nil {
				d, dMax := refD(doc, def, sv.Capacity)
				c = &clock{d: d, dMax: dMax}
				clocks[p.sess] = c
			}
			p.order = n
			p.elig = p.arrive
			if def.JitterControl {
				p.elig = p.arrive + p.hold
			}
			if !c.started {
				c.k, c.started = p.arrive, true
			}
			base := max(p.elig, c.k)
			p.d = c.d(p.length)
			c.dMax = max(c.dMax, p.d)
			p.dMax = c.dMax
			p.dl = base + p.d
			c.k = base + p.length/def.Rate
		}

		// Service: whenever the link is free, the eligible packet of
		// least deadline starts; with none eligible, the link waits for
		// the next arrival or eligibility instant.
		txMax := doc.LMax / sv.Capacity
		var queue []*refHop
		next, free := 0, math.Inf(-1)
		for k := range pkts {
			t := free
			for {
				for next < len(pkts) && pkts[next].arrive <= t {
					queue = append(queue, pkts[next])
					next++
				}
				soonest := math.Inf(1)
				for _, p := range queue {
					soonest = min(soonest, p.elig)
				}
				if soonest <= t {
					break
				}
				if next < len(pkts) {
					soonest = min(soonest, pkts[next].arrive)
				}
				t = soonest
			}
			if k >= len(starts[name]) {
				fail("%s: the run made %d transmissions, the model %d or more", name, len(starts[name]), k+1)
				return compared, bad
			}
			startIdx := starts[name][k]
			var pick *refHop
			for _, p := range queue {
				if p.elig > t || p.arrive == t && p.traceIdx > startIdx {
					continue // not eligible, or not yet arrived when the run chose
				}
				if pick == nil || p.dl < pick.dl || p.dl == pick.dl && p.order < pick.order {
					pick = p
				}
			}
			if pick == nil {
				fail("%s: transmission %d at %.17g has no eligible packet in the model", name, k, t)
				return compared, bad
			}
			queue = removeHop(queue, pick)
			pick.start, pick.end = t, t+pick.length/sv.Capacity
			free = pick.end
			check("start", pick, trace.TransmitStart, pick.start, evTime)
			check("eligibility", pick, trace.TransmitStart, pick.elig, func(e trace.Event) float64 { return e.Eligible })
			check("deadline", pick, trace.TransmitStart, pick.dl, func(e trace.Event) float64 { return e.Deadline })
			check("end", pick, trace.TransmitEnd, pick.end, evTime)

			def := &doc.Sessions[pick.sess]
			var hold float64
			if def.JitterControl {
				hold = max(pick.dl+txMax-pick.end+pick.dMax-pick.d, 0)
			}
			out := &refHop{sess: pick.sess, seq: pick.seq, hop: pick.hop + 1,
				length: pick.length, arrive: pick.end + sv.Gamma, hold: hold}
			if out.hop < len(def.Route) {
				at[def.Route[out.hop]] = append(at[def.Route[out.hop]], out)
			} else {
				out.hop = pick.hop
				check("delivery", out, trace.Deliver, out.arrive, evTime)
			}
		}
		if n := len(starts[name]); n != len(pkts) {
			fail("%s: the run made %d transmissions, the model %d", name, n, len(pkts))
		}
	}
	return compared, bad
}

func removeHop(q []*refHop, p *refHop) []*refHop {
	for i, x := range q {
		if x == p {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// fig6Tandem is the five T1 servers of Figure 6 with 32 kbit/s voice
// sessions end to end and cross traffic over one and two hops, under
// procedure 1 with two delay classes. Four deterministic sessions emit
// in lockstep with equal d, so their deadlines tie at every hop; the
// class-2 sessions alternate eps between 0 and 0.5 ms at one rate, so
// a d(L) handed on without its eps shows.
func fig6Tandem(jitter bool) *config.Scenario {
	doc := &config.Scenario{LMax: 424, Proc: 1, Duration: 3, Seed: 6,
		Classes: []config.Class{{RFrac: 0.25, Sigma: 0.004}, {RFrac: 1, Sigma: 0.02}}}
	for n := 1; n <= 5; n++ {
		doc.Servers = append(doc.Servers, config.Server{Name: fmt.Sprintf("node%d", n), Capacity: 1536e3, Gamma: 1e-3})
	}
	route := func(from, to int) []string {
		var r []string
		for n := from; n <= to; n++ {
			r = append(r, fmt.Sprintf("node%d", n))
		}
		return r
	}
	add := func(class int, eps float64, r []string, src config.Source) {
		doc.Sessions = append(doc.Sessions, config.Session{Rate: 32e3, Route: r, Class: class,
			Eps: eps, JitterControl: jitter, B0: 424, Source: src})
	}
	for i := 0; i < 4; i++ {
		add(1, 0, route(1, 5), config.Source{Kind: "deterministic", Interval: 0.01325, Length: 424})
	}
	for i := 0; i < 16; i++ {
		add(2, 0.0005*float64(i%2), route(1, 5), config.Source{Kind: "onoff", T: 0.01325, Length: 424,
			MeanOn: 0.352, MeanOff: 0.0391, Seed: uint64(i + 1)})
	}
	for n := 1; n <= 5; n++ {
		for i := 0; i < 5; i++ {
			add(2, 0.0005*float64(i%2), route(n, min(n+i%2, 5)), config.Source{Kind: "poisson", Mean: 0.02, Length: 424,
				ShapeRate: 32e3, ShapeB0: 848, Seed: uint64(100*n + i)})
		}
	}
	return doc
}

// TestReferenceSchedule holds the run to the reference model on the
// Figure 6 tandem in both jitter modes and on every generated seed's
// clean run under the exact queue.
func TestReferenceSchedule(t *testing.T) {
	agree := func(name string, doc *config.Scenario) int {
		t.Helper()
		if err := doc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, bad := compareReference(doc, recordRun(t, doc))
		for _, b := range bad {
			t.Errorf("%s: %s", name, b)
		}
		t.Logf("%s: %d", name, n)
		return n
	}
	for _, jitter := range []bool{false, true} {
		if n := agree(fmt.Sprintf("fig6 jitter=%v", jitter), fig6Tandem(jitter)); n < 50000 {
			t.Errorf("fig6 jitter=%v: only %d stamps compared", jitter, n)
		}
	}
	seeds := uint64(100)
	if testing.Short() {
		seeds = 20
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		agree(fmt.Sprintf("seed %d", seed), Generate(seed).Scenario)
	}
}

// recordRun runs the document on the one runner with a trace recorder,
// drained as the harness drains it.
func recordRun(t *testing.T, doc *config.Scenario) *trace.Recorder {
	t.Helper()
	run, err := doc.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	run.System().Net.Tracer = rec
	run.Start()
	run.RunSlice(doc.Duration)
	run.Sim().RunAll()
	return rec
}
