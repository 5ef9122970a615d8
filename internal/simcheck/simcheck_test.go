package simcheck

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"leaveintime/internal/config"
)

// TestGenerateDeterministic: a scenario is a pure function of its seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		a := Generate(seed)
		b := Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d generated an invalid scenario: %v", seed, err)
		}
		if len(a.Sessions) == 0 {
			t.Errorf("seed %d generated no sessions", seed)
		}
	}
}

// TestGenerateCoverage: the generator reaches every corner the battery
// depends on — all three topology shapes, all three admission
// procedures, the LiT ≡ VirtualClock special case, jitter control, and
// all four source kinds.
func TestGenerateCoverage(t *testing.T) {
	shapes := map[string]bool{}
	procs := map[int]bool{}
	kinds := map[string]bool{}
	special, jitter := false, false
	for seed := uint64(1); seed <= 60; seed++ {
		sc := Generate(seed)
		shapes[sc.Check.Kind] = true
		procs[sc.Proc] = true
		special = special || sc.Check.Special
		jitter = jitter || sc.hasJitter()
		for _, s := range sc.Sessions {
			kinds[s.Source.Kind] = true
		}
	}
	if len(shapes) != 3 {
		t.Errorf("topology shapes seen: %v, want tandem, cross and tree", shapes)
	}
	if len(procs) != 3 {
		t.Errorf("procedures seen: %v, want 1, 2 and 3", procs)
	}
	if len(kinds) != 4 {
		t.Errorf("source kinds seen: %v, want deterministic, onoff, poisson and varlen", kinds)
	}
	if !special {
		t.Error("no special (LiT = VirtualClock) scenario in 60 seeds")
	}
	if !jitter {
		t.Error("no jitter-controlled session in 60 seeds")
	}
}

// TestSeedsClean: the invariant battery holds over a block of seeds —
// the paper's commitments are not violated by any generated scenario,
// clean or under its fault plan — and traffic actually flows in each.
func TestSeedsClean(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		clean, faulted := CheckSeed(seed, Options{})
		for _, rep := range []*SeedReport{clean, faulted} {
			if !rep.OK() {
				t.Fatalf("seed %d:\n%s", seed, rep.Format())
			}
			if len(rep.Disciplines) == 0 || rep.Disciplines[0].Delivered == 0 {
				t.Errorf("seed %d: no packets delivered", seed)
			}
		}
	}
}

// TestReportDeterministic: a seed's check is a clean report that books
// every battery — the class-aggregated run (agg=) and the ledger, whose
// fcfs and lit-agg lines hold every session to a promise, jitter control
// or not (seed 1 has it) — and a faulted report marked churn that
// carries neither; same seed, byte-identical pair.
func TestReportDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 3, 4} {
		clean, faulted := CheckSeed(seed, Options{})
		a, b := clean.Format(), faulted.Format()
		if clean.Churn || !strings.Contains(a, " agg=") {
			t.Errorf("seed %d clean report:\n%s", seed, a)
		}
		for _, disc := range []string{"fcfs", "lit-agg"} {
			if n := tally(t, clean, disc).checked; n != clean.Sessions {
				t.Errorf("seed %d: %s checked %d of %d sessions", seed, disc, n, clean.Sessions)
			}
		}
		if !faulted.Churn || !strings.Contains(b, ": ok churn  ") || strings.Contains(b, "agg=") || len(faulted.bounds) != 0 {
			t.Errorf("seed %d faulted report:\n%s", seed, b)
		}
		clean2, faulted2 := CheckSeed(seed, Options{})
		if a2, b2 := clean2.Format(), faulted2.Format(); a != a2 || b != b2 {
			t.Fatalf("seed %d reports not deterministic:\n--- first ---\n%s%s--- second ---\n%s%s", seed, a, b, a2, b2)
		}
	}
}

// TestInjectedViolationShrinksAndReplays: tightening the checked bounds
// past the theorems (the BoundScale hook) must fail, the shrinker must
// reduce the scenario without losing the original violation, and the
// written repro must reproduce the failure when replayed from disk —
// each battery's share of it included: eq. 12 on the reference run and
// LSTF's replay of it, the aggregate's promise on the class-aggregated
// run, the curve-propagated promise on the FCFS run.
func TestInjectedViolationShrinksAndReplays(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
		want [][2]string // checks, each with its discipline, the replay must still report
	}{
		{"bounds", 1, [][2]string{{"delay-bound", "lit"}, {"replay-delay", "lstf"}}},
		{"classes", 2, [][2]string{{"delay-bound", "lit-agg"}}},
		{"calculus", 3, [][2]string{{"delay-bound", "fcfs"}}},
	} {
		t.Run(tc.name, func(t *testing.T) { injectShrinkReplay(t, tc.seed, tc.want) })
	}
}

func injectShrinkReplay(t *testing.T, seed uint64, want [][2]string) {
	opt := Options{BoundScale: 0.01}
	full := Generate(seed)
	rep := CheckScenario(full, opt)
	if rep.OK() {
		t.Fatal("bounds scaled to 1% still hold; the injection hook is dead")
	}
	origChecks := map[[2]string]bool{}
	for _, v := range rep.Violations {
		origChecks[[2]string{v.Check, v.Discipline}] = true
	}

	shrunk, srep := Shrink(full, opt)
	if srep.OK() {
		t.Fatal("shrunken scenario no longer fails")
	}
	if len(shrunk.Sessions) > len(full.Sessions) || shrunk.Duration > full.Duration ||
		len(shrunk.Servers) > len(full.Servers) {
		t.Errorf("shrink grew the scenario: %d sessions %.3fs %d links -> %d sessions %.3fs %d links",
			len(full.Sessions), full.Duration, len(full.Servers),
			len(shrunk.Sessions), shrunk.Duration, len(shrunk.Servers))
	}
	if len(shrunk.Sessions) != 1 {
		t.Errorf("expected the injected failure to shrink to one session, got %d", len(shrunk.Sessions))
	}
	preserved := false
	for _, v := range srep.Violations {
		if origChecks[[2]string{v.Check, v.Discipline}] {
			preserved = true
		}
	}
	if !preserved {
		t.Errorf("shrink lost the original violation checks %v:\n%s", origChecks, srep.Format())
	}

	// Round-trip through JSON: the repro must carry the injected
	// tightening and fail again with no extra options.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, shrunk); err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.OK() {
		t.Fatal("replayed repro no longer fails")
	}
	if replayed.Format() != srep.Format() {
		t.Errorf("replay differs from the shrink's report:\n--- shrink ---\n%s--- replay ---\n%s",
			srep.Format(), replayed.Format())
	}
	reportsPairs(t, replayed, want...)
}

// reportsPairs fails the test unless the report holds a violation of
// each check by its discipline.
func reportsPairs(t *testing.T, rep *SeedReport, want ...[2]string) {
	t.Helper()
	for _, w := range want {
		if !slices.ContainsFunc(rep.Violations, func(v Violation) bool { return [2]string{v.Check, v.Discipline} == w }) {
			t.Errorf("report has no %s by %s:\n%s", w[0], w[1], rep.Format())
		}
	}
}

// TestBaselineBoundShrinksAndReplays: the baselines are held to their
// rows' promises and LSTF to its replay of the lit run, so tightening
// those past what they promise fails a clean seed on the baselines alone
// (seed 26 at 0.6: six delay-bound violations, three sessions each by
// WFQ and WF2Q against the PGPS bound, and a replay-delay for each of
// the seven sessions by LSTF, while every LiT bound, its class
// aggregate's included, holds). The shrink keys on the check and the
// discipline together, so what it keeps is a baseline's failure: LSTF's
// replay, down to one session, which at 0.6 also fails the class
// aggregate's busy-period bound. The repro replays to the shrink's
// report.
func TestBaselineBoundShrinksAndReplays(t *testing.T) {
	opt := Options{BoundScale: 0.6}
	rep := CheckScenario(Generate(26), opt)
	for _, v := range rep.Violations {
		if v.Check != "delay-bound" && v.Check != "replay-delay" || v.Discipline == "lit" || v.Discipline == "lit-agg" {
			t.Errorf("not a baseline's bound: %+v", v)
		}
	}
	reportsPairs(t, rep, [2]string{"delay-bound", "wfq"}, [2]string{"replay-delay", "lstf"})
	shrunk, srep := Shrink(Generate(26), opt)
	if srep.OK() {
		t.Fatal("shrunk case no longer fails")
	}
	reportsPairs(t, srep, [2]string{"replay-delay", "lstf"})
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, shrunk); err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Format() != srep.Format() {
		t.Errorf("replay differs from the shrink's report:\n--- shrink ---\n%s--- replay ---\n%s",
			srep.Format(), replayed.Format())
	}
}

// TestShrinkKeepsValidScenarios: dropping admitted sessions never
// invalidates the rest — every shrink step must replay its admissions
// successfully (an admission-replay violation would surface in the
// battery as a non-original check; here we verify directly).
func TestShrinkKeepsValidScenarios(t *testing.T) {
	sc := Generate(11)
	if len(sc.Sessions) < 2 {
		t.Skip("seed 11 no longer generates a multi-session scenario")
	}
	sub := sc.edited(func(doc *config.Scenario) { doc.Sessions = doc.Sessions[:1] })
	rep := CheckScenario(sub, Options{})
	for _, v := range rep.Violations {
		if v.Check == "admission-replay" {
			t.Fatalf("session subset failed admission replay: %s", v.Detail)
		}
	}
}
