package simcheck

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/calculus"
	"leaveintime/internal/config"
	"leaveintime/internal/sched"
)

// Network-calculus promises: the piecewise-linear curve machinery
// (internal/calculus) composes the bounds only the whole network can
// make. The scenario's admitted flows are propagated hop by hop as
// arrival curves — token bucket (rate, burst) at the source, delayed by
// each hop's aggregate delay bound and peak-capped by the upstream
// wire — and the result is each session's promise: the end-to-end
// delay bound and, for an FCFS server, the per-hop per-flow backlog
// bound. The FCFS baseline run is held to it (fcfsRow), the
// class-aggregated run to its busy-period form (aggPromises), both by
// checkRowBound. The peak caps make the flows genuinely multi-segment
// from hop 2 on, so the battery exercises the full curve arithmetic,
// not just its token-bucket degenerate case.
//
// Soundness notes. Every generated source conforms to its (rate, b0)
// token bucket by construction with b0 >= lmax (Validate), so the
// instantaneous arrival of a whole packet is inside the fluid curve; a
// document in which some session declares no b0 has no arrival curve to
// sum at that session's links, and no session is promised anything.
// DelayBound and FlowBacklogBound already carry the +LMax/C and
// +LMax packetization terms. FCFS has no regulator, so the FIFO bounds
// hold with jitter control on as well. A link whose aggregate rate
// reaches capacity (possible at the admission rules' float tolerance)
// has no finite bound, and downstream hops would be checked against
// contaminated curves; routes that order the links cyclically have no
// hop order in which every upstream curve is known first. Either way no
// session is promised anything.

// calcMode selects the per-hop delay bound used for curve propagation.
type calcMode int

const (
	// calcFIFO uses the aggregate FIFO delay bound (horizontal
	// deviation): valid for an FCFS server.
	calcFIFO calcMode = iota
	// calcBusy uses the busy-period length sup{t : alpha(t) >= Ct}:
	// valid for ANY work-conserving discipline — every packet is served
	// within the busy period containing its arrival — so it bounds the
	// deadline-ordered class aggregate too when no session uses jitter
	// control.
	calcBusy
)

// linkTopoOrder orders the topology's links so that every link a
// session traverses appears after all of the session's upstream
// links. Reports ok=false when the routes induce a cycle.
func linkTopoOrder(sc *Case, routes [][]*config.Server) ([]string, bool) {
	indeg := make(map[string]int, len(sc.Servers))
	keys := make([]string, 0, len(sc.Servers))
	for i := range sc.Servers {
		indeg[sc.Servers[i].Name] = 0
		keys = append(keys, sc.Servers[i].Name)
	}
	succ := make(map[string][]string)
	for _, hops := range routes {
		for i := 0; i+1 < len(hops); i++ {
			a, b := hops[i].Name, hops[i+1].Name
			succ[a] = append(succ[a], b)
			indeg[b]++
		}
	}
	// Kahn's algorithm seeded in topology order, so the result is
	// deterministic for a given scenario.
	var order, ready []string
	for _, k := range keys {
		if indeg[k] == 0 {
			ready = append(ready, k)
		}
	}
	for len(ready) > 0 {
		k := ready[0]
		ready = ready[1:]
		order = append(order, k)
		for _, n := range succ[k] {
			if indeg[n]--; indeg[n] == 0 {
				ready = append(ready, n)
			}
		}
	}
	return order, len(order) == len(keys)
}

// calcBounds orders the links and propagates every session's arrival
// curve along its route: each session's promise, in the case's session
// order, is Σ(d + Γ) over its hops and, in FIFO mode, the per-hop flow
// backlog bounds. A case the analysis cannot soundly bound promises
// every session nothing, for one of three reasons: no token bucket,
// cyclic link order or a saturated link.
func calcBounds(sc *Case, mode calcMode) []sched.Promise {
	ps := make([]sched.Promise, len(sc.Sessions))
	unbounded := func(reason string) []sched.Promise {
		for i := range ps {
			ps[i] = sched.Promise{Origin: reason}
		}
		return ps
	}
	if !sc.allDeclareB0() {
		return unbounded("no token bucket")
	}
	routes := make([][]*config.Server, len(sc.Sessions))
	for i := range sc.Sessions {
		routes[i] = sc.hops(&sc.Sessions[i])
	}
	order, ok := linkTopoOrder(sc, routes)
	if !ok {
		return unbounded("cyclic link order")
	}

	cur := make([]calculus.Curve, len(sc.Sessions))
	hop := make([]int, len(sc.Sessions))
	for i, def := range sc.Sessions {
		cur[i] = calculus.TokenBucket(def.Rate, def.B0)
		ps[i] = sched.Promise{Origin: "busy period"}
		if mode == calcFIFO {
			ps[i] = sched.Promise{Origin: "curve propagation", Buffer: make([]float64, len(routes[i]))}
		}
	}
	var ws calculus.Ws
	for _, key := range order {
		var idx []int
		for i := range sc.Sessions {
			if hop[i] < len(routes[i]) && routes[i][hop[i]].Name == key {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		ld := sc.server(key)
		srv := calculus.FCFSServer{C: ld.Capacity, LMax: sc.LMax}
		var agg calculus.Curve
		for _, i := range idx {
			agg = calculus.Add(agg, cur[i])
		}
		var d float64
		var err error
		if mode == calcBusy {
			d, err = calculus.BusyPeriodBound(agg, ld.Capacity)
		} else {
			d, err = srv.DelayBound(agg)
		}
		if err != nil {
			// Saturated link (admission admits up to a float tolerance
			// of C): no finite bound exists, and every downstream
			// aggregate would be missing this hop's contribution.
			return unbounded("saturated link")
		}
		if mode == calcFIFO {
			for _, i := range idx {
				var ax calculus.Curve
				for _, j := range idx {
					if j != i {
						ax = calculus.Add(ax, cur[j])
					}
				}
				if ps[i].Buffer[hop[i]], err = srv.FlowBacklogBound(&ws, cur[i], ax); err != nil {
					return unbounded("saturated link")
				}
			}
		}
		for _, i := range idx {
			def := &sc.Sessions[i]
			ps[i].Bound += d + ld.Gamma
			// Output envelope: the input delayed by the hop bound,
			// capped by the wire — downstream, the flow cannot arrive
			// faster than one packet plus the upstream link rate.
			cur[i] = calculus.Min(cur[i].Delayed(d),
				calculus.TokenBucket(ld.Capacity, def.LMax))
			hop[i]++
		}
	}
	return ps
}

// promised is a row's Bound that answers from promises the harness
// composed for the whole case, in its session order (a session's
// network id is its place there plus one).
func promised(ps []sched.Promise) func(sched.Flow, []sched.Hop, float64, float64) sched.Promise {
	return func(f sched.Flow, _ []sched.Hop, _, _ float64) sched.Promise { return ps[f.Session-1] }
}

// fcfsRow is FCFS with the promise only the whole network can make:
// sched's row sees one route and owes none ("no cross envelope"), the
// curves propagated through every link bound each session's delay and
// its backlog at each hop.
func fcfsRow(sc *Case) sched.Row {
	row := sched.Lookup("fcfs")
	row.Bound = promised(calcBounds(sc, calcFIFO))
	return row
}

// fpFlow is one session's admission spec at a link, as seen by the
// fast-path differential check.
type fpFlow struct {
	spec  admission.SessionSpec
	class int
}

// checkFastpath is the differential admission check: at every link,
// batching the link's sessions by class through AdmitClass must give
// the verdict of the sequential Admit calls the runner performed (the
// controller's sums are exact, so the two cannot legitimately differ,
// however close to a budget) and identical assignments. Both sides
// take fresh controllers from the system the runner builds for the
// case and the requests it makes of them. Procedures 1 and 2 only —
// procedure 3 has no class structure to batch.
func checkFastpath(sc *Case, rep *SeedReport) {
	if sc.Proc == 3 {
		return
	}
	fastRun, err := build(sc, nil)
	if err != nil {
		panic(err) // the runner has built the case, sessions and all
	}
	seqRun, _ := build(sc, nil)
	opts := admission.Options{PerPacket: true}
	perLink := make(map[string][]fpFlow)
	for i := range sc.Sessions {
		def := &sc.Sessions[i]
		req, err := fastRun.System().Request(def.Request())
		if err != nil {
			panic(err) // Connect took the same request
		}
		req.Spec.ID = def.ID
		for _, key := range def.Route {
			perLink[key] = append(perLink[key], fpFlow{spec: req.Spec, class: req.Class})
		}
	}
	fastSet, seqSet := fastRun.System().Servers(), seqRun.System().Servers()
	for i := range sc.Servers {
		key := sc.Servers[i].Name
		flows := perLink[key]
		if len(flows) == 0 {
			continue
		}
		fast, seq := fastSet[i].Admission().(*admission.ClassController), seqSet[i].Admission()
		classes := fast.Classes
		seqAss := make(map[int]admission.Assignment, len(flows))
		seqOK := true
		for _, f := range flows {
			a, err := seq.Admit(f.spec, f.class, opts)
			if err != nil {
				seqOK = false
				break
			}
			seqAss[f.spec.ID] = a
		}
		for j := 1; j <= len(classes); j++ {
			var batch []admission.SessionSpec
			for _, f := range flows {
				if f.class == j {
					batch = append(batch, f.spec)
				}
			}
			if len(batch) == 0 {
				continue
			}
			got, ok := fast.AdmitClass(nil, batch, j, opts)
			if !ok {
				if seqOK {
					rep.add(Violation{Check: "fastpath-divergence", Discipline: "admission", Port: key,
						Detail: fmt.Sprintf("batch of %d class-%d sessions declined, sequential admits all", len(batch), j)})
				}
				return
			}
			if !seqOK {
				rep.add(Violation{Check: "fastpath-divergence", Discipline: "admission", Port: key,
					Detail: fmt.Sprintf("batch of %d class-%d sessions accepted, sequential rejects a member", len(batch), j)})
				return
			}
			for i, a := range got {
				want := seqAss[batch[i].ID]
				if a.DMax != want.DMax || a.DMin != want.DMin || a.Class != want.Class ||
					a.D(batch[i].LMin) != want.D(batch[i].LMin) {
					rep.add(Violation{Check: "fastpath-divergence", Discipline: "admission",
						Session: batch[i].ID, Port: key,
						Detail: fmt.Sprintf("batch assignment {DMax %.9g DMin %.9g class %d} != sequential {%.9g %.9g %d}",
							a.DMax, a.DMin, a.Class, want.DMax, want.DMin, want.Class)})
					return
				}
			}
		}
	}
}

// TightnessFamily is one configuration of the designed tightness
// scenario: N synchronized CBR sessions sharing one FCFS link.
type TightnessFamily struct {
	Sessions int     `json:"sessions"`
	Observed float64 `json:"observed_s"`
	Bound    float64 `json:"bound_s"`
	Ratio    float64 `json:"ratio"`
}

// TightnessResult is the outcome of the calculus tightness check.
type TightnessResult struct {
	Margin   float64           `json:"margin"`
	Families []TightnessFamily `json:"families"`
	// Err records a family that failed to run or exceeded its bound
	// (which would be a soundness bug, not a tightness miss).
	Err string `json:"err,omitempty"`
}

// Pass reports whether the bounds proved tight: every family stayed
// below its bound and at least one approached it within the margin.
func (t *TightnessResult) Pass() bool {
	if t.Err != "" {
		return false
	}
	for _, f := range t.Families {
		if f.Ratio >= t.Margin {
			return true
		}
	}
	return false
}

// Format renders the result deterministically, one line per family.
func (t *TightnessResult) Format() string {
	var b strings.Builder
	status := "tight"
	if !t.Pass() {
		status = "NOT TIGHT"
	}
	fmt.Fprintf(&b, "calculus tightness: %s (margin %.2f)\n", status, t.Margin)
	for _, f := range t.Families {
		fmt.Fprintf(&b, "  N=%-3d observed %.9fs bound %.9fs ratio %.3f\n",
			f.Sessions, f.Observed, f.Bound, f.Ratio)
	}
	if t.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", t.Err)
	}
	return b.String()
}

// CalculusTightness runs the designed worst-case family: N synchronized
// CBR sessions at 80%% load share one T1 FCFS link, so every emission
// wave queues N packets and the last one waits N·L/C — against the
// analytic bound (N+1)·L/C. The observed/bound ratio N/(N+1) approaches
// 1 as N grows, demonstrating the curve bounds are approached by a real
// arrival pattern, not just never exceeded. A default margin of 0.8 is
// met from N=8 on.
func CalculusTightness(margin float64) *TightnessResult {
	out := &TightnessResult{Margin: margin}
	const (
		cap  = 1.536e6
		lpkt = 424.0
	)
	for _, n := range []int{4, 8, 16} {
		sc := tightnessCase(n, cap, lpkt)
		res, err := runScenario(&sc, fcfsRow(&sc), runOpts{wd: Options{}.watchdog(&sc)})
		if err != nil {
			out.Err = err.Error()
			return out
		}
		if res.Tripped != "" {
			out.Err = "watchdog: " + res.Tripped
			return out
		}
		var rep SeedReport
		t := checkRowBound(res, 1, &rep)
		if t.checked != n {
			out.Err = fmt.Sprintf("N=%d: %d sessions checked, excluded %v", n, t.checked, t.excluded)
			return out
		}
		if !rep.OK() {
			out.Err = fmt.Sprintf("N=%d: %s", n, rep.Violations[0].Detail)
		}
		var worst float64
		for _, sr := range res.Sessions {
			worst = max(worst, sr.MaxDelay)
		}
		// All sessions share the one link and class, so every bound is
		// the same: the worst ratio is the worst delay over session 1's.
		out.Families = append(out.Families, TightnessFamily{Sessions: n, Observed: worst,
			Bound: res.Sessions[0].Promise.Bound, Ratio: t.worst})
	}
	return out
}

// tightnessCase is the designed single-link worst case: n synchronized
// CBR sessions at 80% load of one link.
func tightnessCase(n int, capacity, lpkt float64) Case {
	sc := Case{
		Scenario: &config.Scenario{
			Seed: uint64(n), LMax: lpkt, Duration: 0.05,
			Servers: []config.Server{{Name: "A->B", From: "A", To: "B", Capacity: capacity}},
			Proc:    1,
			Classes: []config.Class{{RFrac: 1, Sigma: 1}},
		},
		Check: Check{Kind: "tandem"},
	}
	for i := 0; i < n; i++ {
		def := config.Session{
			ID: i + 1, Route: []string{"A->B"}, Rate: 0.8 * capacity / float64(n), Class: 1,
			LMin: lpkt, LMax: lpkt, B0: lpkt,
		}
		def.Source = conformingSource("cbr", 0, &def, 0, 0, 0)
		sc.Sessions = append(sc.Sessions, def)
	}
	return sc
}
