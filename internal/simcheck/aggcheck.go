package simcheck

import (
	"fmt"
	"sort"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/sched"
)

// Class-aggregate battery: the scenario re-run with core.Aggregate at every
// port — many micro-sessions mapped onto a few EF/AF-style classes,
// one regulator and one K clock per class — checked against the
// *degraded* analytic bounds aggregation leaves standing.
//
// What survives aggregation, and what it costs. Within one port the
// aggregate is still a Leave-in-Time server (classes in the role of
// sessions, Σ R_c = Σ r_s ≤ C), so per-hop schedulability and deadline
// ordering hold unchanged — the checkedDisc decorator verifies them
// with the exact-LiT tolerance. What is lost is per-session isolation:
// a member packet can wait behind the whole class backlog at a hop,
// and the class's arrival burst grows along the path (each upstream
// hop's delay bound converts to rate × delay of extra burst — the
// classic FIFO-aggregation accumulation). The checked end-to-end
// delay bound is therefore the network-calculus composition
//
//	bound_s = Σ_n [ B_c(n)/R_c(n) + S_n + d_c(n) + LMax/C_n + γ_n ]
//
// where, per hop n of session s's route with c = class(s):
// R_c(n)/B_c(n) are the class's aggregate rate/burst over the members
// routed through n, d_c(n) = max member d_max there, and
// S_n = Σ_{k<n} (B_c(k)/R_c(k) + d_c(k) + LMax/C_k) is the burst
// accumulated through the upstream hops. Hop terms now compound
// quadratically where eq. 12 composed linearly — that gap, reported
// as the degradation factor, is the measured price of O(classes)
// interior state. The jitter bound degrades to the same expression
// minus the propagation floor (ineq. 17's structure with the
// aggregate delay spread in place of the per-session one).
//
// Class mapping: procedures 1 and 2 reuse the scenario's declared
// delay classes (sessions[].class); procedure 3 sessions — per-session
// d, no class structure — are bucketed by their declared d into up to
// three classes of like-latency sessions (rank order, deterministic).

// classMap returns the session → class assignment and the class count.
func classMap(sc *Case) (map[int]int, int) {
	m := make(map[int]int, len(sc.Sessions))
	if sc.Proc != 3 {
		for _, def := range sc.Sessions {
			m[def.ID] = max(def.Class, 1) - 1
		}
		return m, max(len(sc.Classes), 1) // no classes: the one full-link class
	}
	ds := make([]float64, 0, len(sc.Sessions))
	seen := make(map[float64]bool)
	for _, def := range sc.Sessions {
		if !seen[def.D] {
			seen[def.D] = true
			ds = append(ds, def.D)
		}
	}
	sort.Float64s(ds)
	nc := len(ds)
	if nc > 3 {
		nc = 3
	}
	if nc == 0 {
		nc = 1
	}
	rank := make(map[float64]int, len(ds))
	for i, d := range ds {
		rank[d] = i * nc / len(ds)
	}
	for _, def := range sc.Sessions {
		m[def.ID] = rank[def.D]
	}
	return m, nc
}

// aggRow is the class-aggregated server as a discipline row. The
// aggregate is deadline-ordered over eligible packets exactly like exact
// LiT, so it inherits LiT's row and with it the same online checks:
// deadline inversion at heap tolerance, work conservation when no
// session uses jitter control.
func aggRow(sc *Case) sched.Row {
	cls, nc := classMap(sc)
	row := sched.Lookup("lit")
	row.Name = "lit-agg"
	row.New = func(capacity, lMax, _ float64) network.Discipline {
		return core.NewAggregate(core.AggConfig{
			Capacity: capacity, LMax: lMax,
			Classes: nc, ClassOf: func(id int) int { return cls[sc.docID(id)] },
		})
	}
	return row
}

// aggHop is one hop of a session's route as the degraded bound sees
// it: the class aggregate at that link.
type aggHop struct {
	rate float64 // R_c at this link
	bur  float64 // B_c at this link
	dc   float64 // d_c at this link
	cap  float64 // link capacity
	gam  float64 // propagation delay
}

// aggBounds replays admission for every session and composes the
// degraded per-session delay/jitter bounds over the class aggregates.
// The result maps session ID → (delay bound, jitter bound).
func aggBounds(sc *Case, cls map[int]int) (map[int][2]float64, error) {
	adm, err := sc.Controllers()
	if err != nil {
		return nil, err
	}
	// Per link key and class: the aggregate rate, burst and d_c.
	type linkClass struct {
		rate, bur, dMax float64
	}
	aggs := make(map[string]map[int]*linkClass)
	routes := make(map[int]*admitted, len(sc.Sessions))
	for i := range sc.Sessions {
		def := &sc.Sessions[i]
		ad, err := replayAdmission(sc, adm, def)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", def.ID, err)
		}
		routes[def.ID] = ad
		c := cls[def.ID]
		for i, l := range ad.hops {
			key := l.Name
			byClass := aggs[key]
			if byClass == nil {
				byClass = make(map[int]*linkClass)
				aggs[key] = byClass
			}
			lc := byClass[c]
			if lc == nil {
				lc = &linkClass{}
				byClass[c] = lc
			}
			lc.rate += def.Rate
			lc.bur += def.B0
			if d := ad.bounds.Assignments[i].DMax; d > lc.dMax {
				lc.dMax = d
			}
		}
	}

	out := make(map[int][2]float64, len(sc.Sessions))
	for _, def := range sc.Sessions {
		ad := routes[def.ID]
		c := cls[def.ID]
		var hops []aggHop
		for _, l := range ad.hops {
			lc := aggs[l.Name][c]
			hops = append(hops, aggHop{
				rate: lc.rate, bur: lc.bur, dc: lc.dMax,
				cap: l.Capacity, gam: l.Gamma,
			})
		}
		var bound, acc, props float64
		for _, h := range hops {
			hop := h.bur/h.rate + h.dc + sc.LMax/h.cap
			bound += acc + hop + h.gam
			acc += hop
			props += h.gam
		}
		out[def.ID] = [2]float64{bound, bound - props}
	}
	return out, nil
}

// checkAggregate runs the class-aggregate battery: the aggregate run must
// drain cleanly, see the reference arrival sequence, pass its online
// checks, and keep every session inside the degraded bounds. The
// degradation factor (degraded bound / eq.-12 bound, maximized over
// sessions) is recorded on the report.
func checkAggregate(sc *Case, exact *runResult, scale float64, wd event.Watchdog, rep *SeedReport) {
	row := aggRow(sc)
	res := rep.runUnder(sc, row, runOpts{wd: wd})
	if res == nil || res.Tripped != "" {
		return
	}
	checkDrain(res, rep)
	checkCapacity(res, rep)
	if exact.Tripped == "" {
		checkEmitted(exact, res, rep)
	}

	if !sc.allDeclareB0() {
		return // a class's burst is the sum of its members' b0
	}
	cls, _ := classMap(sc)
	bounds, err := aggBounds(sc, cls)
	if err != nil {
		rep.add(Violation{Check: "admission-replay", Discipline: row.Name, Detail: err.Error()})
		return
	}
	for _, sr := range res.Sessions {
		if sr.Delivered == 0 {
			continue
		}
		b := bounds[sr.Def.ID]
		if bound := b[0] * scale; sr.MaxDelay >= bound {
			rep.add(Violation{Check: "agg-delay-bound", Discipline: row.Name, Session: sr.Def.ID,
				Detail: fmt.Sprintf("max delay %.9f >= degraded bound %.9f (%d hops, class %d)",
					sr.MaxDelay, bound, sr.Hops, cls[sr.Def.ID])})
		}
		if bound := b[1] * scale; sr.Jitter >= bound {
			rep.add(Violation{Check: "agg-jitter-bound", Discipline: row.Name, Session: sr.Def.ID,
				Detail: fmt.Sprintf("jitter %.9f >= degraded bound %.9f", sr.Jitter, bound)})
		}
		rep.AggChecked++
		if sr.DelayBound > 0 {
			if f := b[0] / sr.DelayBound; f > rep.AggDegrade {
				rep.AggDegrade = f
			}
		}
	}

	// Curve-side cross-check: the busy-period composition bounds any
	// work-conserving discipline, the deadline-ordered aggregate
	// included (see calccheck.go).
	checkAggCalc(sc, res, scale, rep)
}
