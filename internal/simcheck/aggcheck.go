package simcheck

import (
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
// aggregate delay spread in place of the per-session one). Without
// jitter control the aggregate is work-conserving, so the busy-period
// composition (sched.BusyPeriod) bounds its delay too, and the
// promise's delay bound is the smaller of the two.
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
	nc := max(min(len(ds), 3), 1)
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
// session uses jitter control. Its promise is composed over the class
// aggregates at every hop: a class's rate and burst are its members'
// rates and b0 summed over the flows the hop holds, in their order
// there, and its d_max the largest its members' ports were given. A
// flow's promise is its degraded delay and jitter bounds, the delay
// bound the busy-period composition's where that is smaller (it bounds
// a work-conserving aggregate, so only without jitter control). Each
// flow's degraded delay bound is also left in *degraded, the numerator
// of its degradation factor. Without every b0 no class burst is known,
// and no flow is promised anything.
func aggRow(sc *Case, degraded *[]float64) sched.Row {
	cls, nc := classMap(sc)
	jitter := sc.hasJitter()
	row := sched.Lookup("lit")
	row.Name = "lit-agg"
	row.New = func(capacity, lMax, _ float64) network.Discipline {
		return core.NewAggregate(core.AggConfig{
			Capacity: capacity, LMax: lMax,
			Classes: nc, ClassOf: func(id int) int { return cls[sc.docID(id)] },
		})
	}
	row.Bound = func(flows []sched.Flow, routes [][]sched.Hop, lMax, _ float64) []sched.Promise {
		ps := make([]sched.Promise, len(flows))
		*degraded = make([]float64, len(flows))
		byID := make(map[int]sched.Flow, len(flows))
		for _, f := range flows {
			if f.B0 <= 0 {
				for i := range ps {
					ps[i].Origin = "no token bucket"
				}
				return ps
			}
			byID[f.Session] = f
		}
		var busy []sched.Promise
		if !jitter {
			busy = sched.BusyPeriod(flows, routes, lMax)
		}
		for i, f := range flows {
			class := cls[sc.docID(f.Session)]
			var bound, acc, props float64
			for _, h := range routes[i] {
				var rate, bur, dMax float64
				for _, p := range h.Ports {
					if cls[sc.docID(p.Session)] == class {
						rate += byID[p.Session].Rate
						bur += byID[p.Session].B0
						dMax = max(dMax, p.DMax)
					}
				}
				hop := bur/rate + dMax + lMax/h.C
				bound += acc + hop + h.Gamma
				acc += hop
				props += h.Gamma
			}
			ps[i] = sched.Promise{Bound: bound, Jitter: bound - props, Origin: "degraded composition"}
			(*degraded)[i] = bound
			if busy != nil && busy[i].Bound > 0 && busy[i].Bound < bound {
				ps[i].Bound, ps[i].Origin = busy[i].Bound, busy[i].Origin
			}
		}
		return ps
	}
	return row
}

// checkAggregate runs the class-aggregate battery: the aggregate run must
// drain cleanly, see the reference arrival sequence, pass its online
// checks, and keep every session inside its promise. The sessions
// checked and the worst degradation factor over them are recorded on
// the report; the tally is returned for the ledger, with ok false when
// the run did not finish.
func checkAggregate(sc *Case, exact *runResult, scale float64, wd event.Watchdog, rep *SeedReport) (t boundTally, ok bool) {
	var degraded []float64
	res := rep.runUnder(sc, aggRow(sc, &degraded), runOpts{wd: wd})
	if res == nil || res.Tripped != "" {
		return t, false
	}
	checkDrain(res, rep)
	checkCapacity(res, rep)
	if exact.Tripped == "" {
		checkEmitted(exact, res, rep)
	}
	t = checkRowBound(res, scale, rep)
	rep.AggChecked = t.checked
	for i, sr := range res.Sessions {
		if eq12 := exact.Sessions[i].Promise.Bound; sr.Delivered > 0 && eq12 > 0 {
			rep.AggDegrade = max(rep.AggDegrade, degraded[i]/eq12)
		}
	}
	return t, true
}
