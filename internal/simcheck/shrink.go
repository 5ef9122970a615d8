package simcheck

import (
	"slices"

	"leaveintime/internal/config"
)

// shrinkBudget caps how many candidate scenarios one shrink may re-run.
const shrinkBudget = 150

// Shrink reduces a failing scenario to a smaller one that still fails
// at least one of the *original* violations, the same check by the same
// discipline (so the shrinker cannot wander off to a different bug, nor
// to another discipline's share of the same check). It greedily tries,
// in rounds
// until a fixed point or the budget runs out:
//
//  1. dropping sessions (highest ID first — later sessions depend on
//     nothing, and removal never invalidates the remaining admissions);
//  2. halving the duration;
//  3. trimming each session's route by its final hop;
//  4. pruning servers no remaining route names.
//
// It returns the smallest failing case found, the options' injected
// tightening folded into its check object, and its report. A case under
// a fault plan is returned whole: dropping a session or trimming a route
// would orphan the plan's references to it, and the plan is the thing
// its repro must preserve.
func Shrink(sc Case, opt Options) (Case, *SeedReport) {
	opt.fold(&sc)
	orig := CheckScenario(sc, opt)
	if orig.OK() || !sc.Faults.Empty() {
		return sc, orig
	}
	type key struct{ check, discipline string }
	want := make(map[key]bool)
	for _, v := range orig.Violations {
		want[key{v.Check, v.Discipline}] = true
	}
	budget := shrinkBudget
	fails := func(s Case) (*SeedReport, bool) {
		budget--
		rep := CheckScenario(s, opt)
		for _, v := range rep.Violations {
			if want[key{v.Check, v.Discipline}] {
				return rep, true
			}
		}
		return rep, false
	}

	cur, best := sc, orig
	for changed := true; changed && budget > 0; {
		changed = false
		// 1. Drop sessions.
		for i := len(cur.Sessions) - 1; i >= 0 && len(cur.Sessions) > 1 && budget > 0; i-- {
			trial := cur.edited(func(doc *config.Scenario) {
				doc.Sessions = slices.Delete(slices.Clone(doc.Sessions), i, i+1)
			})
			if rep, bad := fails(trial); bad {
				cur, best, changed = trial, rep, true
			}
		}
		// 2. Halve the duration.
		for budget > 0 && cur.Duration > 0.05 {
			trial := cur.edited(func(doc *config.Scenario) { doc.Duration /= 2 })
			rep, bad := fails(trial)
			if !bad {
				break
			}
			cur, best, changed = trial, rep, true
		}
		// 3. Trim routes from the exit end.
		for i := 0; i < len(cur.Sessions) && budget > 0; i++ {
			trial, ok := trimRoute(cur, i)
			if !ok {
				continue
			}
			if rep, bad := fails(trial); bad {
				cur, best, changed = trial, rep, true
			}
		}
		// 4. Prune unused servers: routes are written out, so a server
		// on none of them cannot change any.
		if budget > 0 {
			if trial, ok := pruneLinks(cur); ok {
				if rep, bad := fails(trial); bad {
					cur, best, changed = trial, rep, true
				}
			}
		}
	}
	return cur, best
}

// trimRoute shortens session i's route by its final hop.
func trimRoute(sc Case, i int) (Case, bool) {
	route := sc.Sessions[i].Route
	if len(route) < 2 {
		return sc, false
	}
	return sc.edited(func(doc *config.Scenario) {
		doc.Sessions = slices.Clone(doc.Sessions)
		doc.Sessions[i].Route = route[:len(route)-1]
	}), true
}

// pruneLinks removes the servers that no session's route names.
func pruneLinks(sc Case) (Case, bool) {
	used := make(map[string]bool)
	for i := range sc.Sessions {
		for _, name := range sc.Sessions[i].Route {
			used[name] = true
		}
	}
	if len(used) == len(sc.Servers) || len(used) == 0 {
		return sc, false
	}
	return sc.edited(func(doc *config.Scenario) {
		doc.Servers = slices.DeleteFunc(slices.Clone(doc.Servers),
			func(sv config.Server) bool { return !used[sv.Name] })
	}), true
}
