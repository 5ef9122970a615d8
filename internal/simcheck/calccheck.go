package simcheck

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/config"
	"leaveintime/internal/sched"
)

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
		res, err := runScenario(&sc, sched.Lookup("fcfs"), runOpts{wd: Options{}.watchdog(&sc)})
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
