package simcheck

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/calculus"
	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/sched"
)

// Network-calculus battery: the piecewise-linear curve machinery
// (internal/calculus) cross-validated against the simulator. The
// scenario's admitted flows are propagated hop by hop as arrival
// curves — token bucket (rate, burst) at the source, delayed by each
// hop's aggregate FIFO delay bound and peak-capped by the upstream
// wire — and the resulting per-session end-to-end delay bounds and
// per-hop per-flow backlog bounds are checked against an FCFS run of
// the identical arrival sequence: the simulation must never exceed
// the analytics. The peak caps make the flows genuinely multi-segment
// from hop 2 on, so the battery exercises the full curve arithmetic,
// not just its token-bucket degenerate case.
//
// Soundness notes. Every generated source conforms to its (rate, b0)
// token bucket by construction with b0 >= lmax (Validate), so the
// instantaneous arrival of a whole packet is inside the fluid curve; a
// document in which some session declares no b0 has no arrival curve to
// sum at that session's links, and is skipped.
// DelayBound and FlowBacklogBound already carry the +LMax/C and
// +LMax packetization terms. The battery runs only on scenarios
// without jitter control: regulators deliberately hold packets past
// the FIFO prediction, so no FIFO bound applies there. A link whose
// aggregate rate reaches capacity (possible at the admission rules'
// float tolerance) has no finite FIFO delay bound; the battery then
// skips the scenario rather than check downstream hops against
// contaminated curves. Routes that order the links cyclically (no hop
// order in which every upstream curve is known first) are likewise
// skipped.

// calcMode selects the per-hop delay bound used for curve propagation.
type calcMode int

const (
	// calcFIFO uses the aggregate FIFO delay bound (horizontal
	// deviation): valid for an FCFS server.
	calcFIFO calcMode = iota
	// calcBusy uses the busy-period length sup{t : alpha(t) >= Ct}:
	// valid for ANY work-conserving discipline — every packet is served
	// within the busy period containing its arrival — so it bounds the
	// deadline-ordered class aggregate too.
	calcBusy
)

// calcAnalysis is the outcome of propagating the scenario's flows
// through the curve machinery.
type calcAnalysis struct {
	// delay maps session ID -> end-to-end analytic delay bound
	// (per-hop bounds plus propagation delays).
	delay map[int]float64
	// backlog maps session ID -> per-hop flow backlog bound, bits, in
	// route order (FIFO mode only).
	backlog map[int][]float64
	// skipped marks a scenario the analysis cannot soundly bound:
	// cyclic link order or a saturated link.
	skipped bool
	reason  string
}

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
// curve along its route, composing per-session delay bounds and (in
// FIFO mode) per-hop flow backlog bounds.
func calcBounds(sc *Case, mode calcMode) *calcAnalysis {
	if !sc.allDeclareB0() {
		return &calcAnalysis{skipped: true, reason: "a session declares no b0"}
	}
	routes := make([][]*config.Server, len(sc.Sessions))
	for i := range sc.Sessions {
		routes[i] = sc.hops(&sc.Sessions[i])
	}
	order, ok := linkTopoOrder(sc, routes)
	if !ok {
		return &calcAnalysis{skipped: true, reason: "routes order the links cyclically"}
	}

	an := &calcAnalysis{
		delay:   make(map[int]float64, len(sc.Sessions)),
		backlog: make(map[int][]float64, len(sc.Sessions)),
	}
	cur := make([]calculus.Curve, len(sc.Sessions))
	hop := make([]int, len(sc.Sessions))
	for i, def := range sc.Sessions {
		cur[i] = calculus.TokenBucket(def.Rate, def.B0)
		an.backlog[def.ID] = make([]float64, len(routes[i]))
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
			return &calcAnalysis{skipped: true,
				reason: fmt.Sprintf("link %s: %v", key, err)}
		}
		if mode == calcFIFO {
			for _, i := range idx {
				var ax calculus.Curve
				for _, j := range idx {
					if j != i {
						ax = calculus.Add(ax, cur[j])
					}
				}
				b, err := srv.FlowBacklogBound(&ws, cur[i], ax)
				if err != nil {
					return &calcAnalysis{skipped: true,
						reason: fmt.Sprintf("link %s: %v", key, err)}
				}
				an.backlog[sc.Sessions[i].ID][hop[i]] = b
			}
		}
		for _, i := range idx {
			def := &sc.Sessions[i]
			an.delay[def.ID] += d + ld.Gamma
			// Output envelope: the input delayed by the hop bound,
			// capped by the wire — downstream, the flow cannot arrive
			// faster than one packet plus the upstream link rate.
			cur[i] = calculus.Min(cur[i].Delayed(d),
				calculus.TokenBucket(ld.Capacity, def.LMax))
			hop[i]++
		}
	}
	return an
}

// calcFCFSRow is the battery's reference run: plain FCFS under a
// distinct name so its summary row and any online violations are
// attributable to this battery.
func calcFCFSRow() sched.Row {
	row := sched.Lookup("fcfs")
	row.Name = "fcfs-calc"
	return row
}

// checkCalculus runs the network-calculus battery: the differential
// admission fast-path check, then (for jitter-free scenarios) the
// curve-propagated delay and backlog bounds against an FCFS run with
// occupancy probes. CalcChecked counts bound-checked sessions and
// CalcTight records how closely the simulation approached the delay
// bounds (observed/bound, maximized over sessions) — the per-seed
// tightness telemetry.
func checkCalculus(sc *Case, scale float64, wd event.Watchdog, rep *SeedReport) {
	checkFastpath(sc, rep)
	if sc.hasJitter() {
		return
	}
	an := calcBounds(sc, calcFIFO)
	if an.skipped {
		return
	}

	res := rep.runUnder(sc, calcFCFSRow(), runOpts{probes: true, wd: wd})
	if res == nil || res.Tripped != "" {
		return
	}
	for _, sr := range res.Sessions {
		if sr.Delivered == 0 {
			continue
		}
		id := sr.Def.ID
		if bound := an.delay[id] * scale; sr.MaxDelay >= bound {
			rep.add(Violation{Check: "calc-delay-bound", Discipline: res.Name, Session: id,
				Detail: fmt.Sprintf("max delay %.9f >= curve bound %.9f (%d hops)",
					sr.MaxDelay, bound, sr.Hops)})
		} else if bound > 0 {
			if r := sr.MaxDelay / bound; r > rep.CalcTight {
				rep.CalcTight = r
			}
		}
		for i, pr := range sr.Probes {
			bb := an.backlog[id]
			if i >= len(bb) {
				break
			}
			if bound := bb[i] * scale; pr.MaxBits >= bound {
				rep.add(Violation{Check: "calc-backlog-bound", Discipline: res.Name, Session: id,
					Port: pr.Port, Detail: fmt.Sprintf("occupancy %.0f bits >= curve bound %.0f",
						pr.MaxBits, bound)})
			}
		}
		rep.CalcChecked++
	}
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

// checkAggCalc is the curve-side check of the class-aggregated run:
// the busy-period composition bounds any work-conserving discipline,
// so the deadline-ordered aggregate must respect it too. Skipped under
// jitter control (the aggregate is then not work-conserving) and on
// scenarios the analysis cannot soundly bound.
func checkAggCalc(sc *Case, res *runResult, scale float64, rep *SeedReport) {
	if sc.hasJitter() {
		return
	}
	an := calcBounds(sc, calcBusy)
	if an.skipped {
		return
	}
	for _, sr := range res.Sessions {
		if sr.Delivered == 0 {
			continue
		}
		id := sr.Def.ID
		if bound := an.delay[id] * scale; sr.MaxDelay >= bound {
			rep.add(Violation{Check: "agg-calc-bound", Discipline: res.Name, Session: id,
				Detail: fmt.Sprintf("max delay %.9f >= busy-period curve bound %.9f (%d hops)",
					sr.MaxDelay, bound, sr.Hops)})
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
		if err := sc.Validate(); err != nil {
			out.Err = err.Error()
			return out
		}
		an := calcBounds(&sc, calcFIFO)
		if an.skipped {
			out.Err = an.reason
			return out
		}
		res, err := runScenario(&sc, calcFCFSRow(), runOpts{wd: Options{}.watchdog(&sc)})
		if err != nil {
			out.Err = err.Error()
			return out
		}
		if res.Tripped != "" {
			out.Err = "watchdog: " + res.Tripped
			return out
		}
		var worst float64
		for _, sr := range res.Sessions {
			if sr.MaxDelay > worst {
				worst = sr.MaxDelay
			}
		}
		// All sessions share the one link and class, so every bound is
		// the same; take session 1's.
		bound := an.delay[1]
		fam := TightnessFamily{Sessions: n, Observed: worst, Bound: bound}
		if bound > 0 {
			fam.Ratio = worst / bound
		}
		if worst >= bound {
			out.Err = fmt.Sprintf("N=%d: observed %.9f exceeds bound %.9f", n, worst, bound)
		}
		out.Families = append(out.Families, fam)
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
