package simcheck

import (
	"path/filepath"
	"testing"

	"leaveintime/internal/config"
	"leaveintime/internal/sched"
)

// tally is the report's ledger line for the discipline.
func tally(t *testing.T, rep *SeedReport, disc string) boundTally {
	t.Helper()
	for _, b := range rep.bounds {
		if b.discipline == disc {
			return b
		}
	}
	t.Fatalf("seed %d: no %s tally in the ledger", rep.Seed, disc)
	return boundTally{}
}

// TestCalculusSeedsClean: the curve-propagated bounds hold over a block
// of generated scenarios (the one after TestSeedsClean's), and the
// baseline loop's FCFS run actually checks sessions against them, none
// of them past its bound.
func TestCalculusSeedsClean(t *testing.T) {
	checked := 0
	for seed := uint64(13); seed <= 24; seed++ {
		rep := CheckScenario(Generate(seed), Options{})
		if !rep.OK() {
			t.Fatalf("seed %d:\n%s", seed, rep.Format())
		}
		fcfs := tally(t, rep, "fcfs")
		checked += fcfs.checked
		if fcfs.checked > 0 && (fcfs.worst <= 0 || fcfs.worst >= 1) {
			t.Errorf("seed %d: tightness ratio %.3f outside (0,1) with clean bounds",
				seed, fcfs.worst)
		}
	}
	if checked == 0 {
		t.Error("no session was bound-checked in 12 seeds; the battery is dead")
	}
}

// TestFCFSHeldUnderJitterControl: FCFS has no regulator, so jitter
// control leaves its FIFO promise standing: on every clean seed the
// fcfs run holds each session that delivered to it, jitter-controlled
// seeds included.
func TestFCFSHeldUnderJitterControl(t *testing.T) {
	jittered := 0
	for seed := uint64(1); seed <= 20; seed++ {
		sc := Generate(seed)
		rep := CheckScenario(sc, Options{})
		fcfs := tally(t, rep, "fcfs")
		if fcfs.checked+fcfs.excluded["nothing delivered"] != len(sc.Sessions) || fcfs.checked == 0 {
			t.Errorf("seed %d (jitter control %v): fcfs checked %d of %d sessions, excluded %v",
				seed, sc.hasJitter(), fcfs.checked, len(sc.Sessions), fcfs.excluded)
		}
		if sc.hasJitter() {
			jittered++
		}
	}
	if jittered == 0 {
		t.Error("no jitter-controlled case in seeds 1-20")
	}
}

// TestCalculusReportDeterministic: same seed, byte-identical report on
// seeds where the calculus battery stops at the fast-path check.
func TestCalculusReportDeterministic(t *testing.T) {
	for _, seed := range []uint64{2, 5} {
		a := CheckScenario(Generate(seed), Options{}).Format()
		b := CheckScenario(Generate(seed), Options{}).Format()
		if a != b {
			t.Fatalf("seed %d calculus report not deterministic:\n--- first ---\n%s--- second ---\n%s",
				seed, a, b)
		}
	}
}

// calcScenario is the designed single-link worst case the battery's own
// tests reuse: n synchronized CBR sessions at 80% load of one T1 link.
func calcScenario(n int) Case { return tightnessCase(n, 1.536e6, 424) }

// TestCalculusTightness: the designed family approaches the curve bound
// within the default margin (ratio N/(N+1), monotone in N), never
// exceeds it, and the report is deterministic.
func TestCalculusTightness(t *testing.T) {
	tr := CalculusTightness(0.8)
	if !tr.Pass() {
		t.Fatalf("tightness family missed the 0.8 margin:\n%s", tr.Format())
	}
	if tr.Err != "" {
		t.Fatalf("tightness run errored: %s", tr.Err)
	}
	if len(tr.Families) != 3 {
		t.Fatalf("want 3 families, got %d", len(tr.Families))
	}
	for i, f := range tr.Families {
		if f.Observed >= f.Bound {
			t.Errorf("N=%d: observed %.9f >= bound %.9f (soundness)", f.Sessions, f.Observed, f.Bound)
		}
		if i > 0 && f.Ratio <= tr.Families[i-1].Ratio {
			t.Errorf("ratio not increasing with N: %.3f after %.3f", f.Ratio, tr.Families[i-1].Ratio)
		}
	}
	// An unreachable margin must fail: the bound keeps a packetization
	// term the synchronized burst cannot consume.
	if CalculusTightness(0.999).Pass() {
		t.Error("margin 0.999 passed; the tightness check cannot fail")
	}
	if a, b := tr.Format(), CalculusTightness(0.8).Format(); a != b {
		t.Errorf("tightness report not deterministic:\n%s\n%s", a, b)
	}
}

// TestCalculusBoundScaleShrinksAndReplays: tightening the checked
// bounds makes the FCFS run fail its curve-propagated promise, the
// shrinker preserves a failure, and the written repro carries the scale
// so it replays with default options.
func TestCalculusBoundScaleShrinksAndReplays(t *testing.T) {
	sc := calcScenario(8)
	opt := Options{BoundScale: 0.5}
	rep := CheckScenario(sc, opt)
	found := false
	for _, v := range rep.Violations {
		if v.Discipline == "fcfs" && (v.Check == "delay-bound" || v.Check == "buffer-bound") {
			found = true
		}
	}
	if !found {
		t.Fatalf("bound scale 0.5 produced no fcfs bound violation:\n%s", rep.Format())
	}

	shrunk, srep := Shrink(sc, opt)
	if srep.OK() {
		t.Fatal("shrunken scenario no longer fails")
	}
	if shrunk.Check.BoundScale != 0.5 {
		t.Fatalf("shrink lost the injected tightening: scale=%g", shrunk.Check.BoundScale)
	}
	if len(shrunk.Sessions) >= len(sc.Sessions) {
		t.Errorf("shrink kept %d of %d sessions", len(shrunk.Sessions), len(sc.Sessions))
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, shrunk); err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.OK() {
		t.Fatal("replayed calculus repro no longer fails")
	}
	if replayed.Format() != srep.Format() {
		t.Errorf("replay differs from the shrink's report:\n--- shrink ---\n%s--- replay ---\n%s",
			srep.Format(), replayed.Format())
	}
}

// TestCyclicRoutesExcluded: routes that order the links cyclically
// have no sound propagation order, so the fcfs row promises nothing
// (sched's TestFCFSExclusions); the battery counts every session under
// the reason, and stays quiet.
func TestCyclicRoutesExcluded(t *testing.T) {
	const capBps = 1.536e6
	sc := Case{Scenario: &config.Scenario{
		Seed: 1, LMax: 424, Duration: 0.05,
		Servers: []config.Server{
			{From: "A", To: "B", Capacity: capBps},
			{From: "B", To: "C", Capacity: capBps},
			{From: "C", To: "A", Capacity: capBps},
		},
		Proc:    1,
		Classes: []config.Class{{RFrac: 1, Sigma: 1}},
	}, Check: Check{Kind: "cross"}}
	for i, route := range [][]string{{"A->B", "B->C"}, {"B->C", "C->A"}, {"C->A", "A->B"}} {
		def := config.Session{ID: i + 1, Route: route, Rate: 32e3, Class: 1, LMin: 424, LMax: 424, B0: 424}
		def.Source = conformingSource("cbr", 0, &def, 0, 0, 0)
		sc.Sessions = append(sc.Sessions, def)
	}
	rep := CheckScenario(sc, Options{})
	if !rep.OK() {
		t.Fatalf("cyclic scenario produced violations:\n%s", rep.Format())
	}
	if fcfs := tally(t, rep, "fcfs"); fcfs.checked != 0 || fcfs.excluded["cyclic link order"] != 3 {
		t.Errorf("cyclic scenario's fcfs tally: checked %d, excluded %v", fcfs.checked, fcfs.excluded)
	}
}

// TestAggregatePromise: the promise the class-aggregate run holds each
// session to is the degraded composition, or the busy-period
// composition where that is smaller and no session uses jitter control,
// to the bit; its jitter promise is the degraded one either way; and
// its tally reaches the ledger after LiT's.
func TestAggregatePromise(t *testing.T) {
	for _, jitter := range []bool{false, true} {
		sc := calcScenario(4)
		for i := range sc.Sessions {
			sc.Sessions[i].JitterControl = jitter
		}
		exact, err := runScenario(&sc, sched.Lookup("lit"), runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// One link, one class, no propagation: the degraded bound is
		// one hop of the class's burst over its rate, its largest d_max
		// and a packet time.
		var rate, bur, dMax float64
		var flows []sched.Flow
		var routes [][]sched.Hop
		for _, sr := range exact.Sessions {
			rate += sr.Def.Rate
			bur += sr.Def.B0
			dMax = max(dMax, sr.Route[0].Own(sr.Flow.Session).DMax)
			flows, routes = append(flows, sr.Flow), append(routes, sr.Route)
		}
		degraded := bur/rate + dMax + sc.LMax/sc.Servers[0].Capacity
		want := degraded
		if !jitter {
			want = min(degraded, sched.BusyPeriod(flows, routes, sc.LMax)[0].Bound)
		}
		var recorded []float64
		agg, err := runScenario(&sc, aggRow(&sc, &recorded), runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, sr := range agg.Sessions {
			if p := sr.Promise; p.Bound != want || p.Jitter != degraded || recorded[i] != degraded {
				t.Errorf("jitter control %v: session %d promised %+v (degraded %.12g), want delay %.12g jitter %.12g",
					jitter, i+1, p, recorded[i], want, degraded)
			}
		}
		rep := CheckScenario(sc, Options{})
		if n := len(rep.bounds); n < 2 || rep.bounds[n-2].discipline != "lit" || rep.bounds[n-1].discipline != "lit-agg" {
			t.Fatalf("jitter control %v: ledger does not end with lit, lit-agg:\n%+v", jitter, rep.bounds)
		}
		if agg := rep.bounds[len(rep.bounds)-1]; agg.checked != len(sc.Sessions) || agg.jitterChecked != len(sc.Sessions) {
			t.Errorf("jitter control %v: lit-agg checked %d delays and %d jitters of %d sessions",
				jitter, agg.checked, agg.jitterChecked, len(sc.Sessions))
		}
	}
}

// TestFastpathDivergenceQuiet: the differential admission check over
// generated scenarios never fires — batch and sequential admission are
// equivalent by construction.
func TestFastpathDivergenceQuiet(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		sc := Generate(seed)
		rep := &SeedReport{Seed: seed}
		checkFastpath(&sc, rep)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s: %s", seed, v.Check, v.Detail)
		}
	}
}
