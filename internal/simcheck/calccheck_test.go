package simcheck

import (
	"path/filepath"
	"strings"
	"testing"

	"leaveintime/internal/config"
)

// TestCalculusSeedsClean: the curve-propagated bounds hold over a block
// of generated scenarios (the one after TestSeedsClean's), and the
// battery actually checks sessions (the generator produces jitter-free,
// stable scenarios often enough).
func TestCalculusSeedsClean(t *testing.T) {
	checked := 0
	for seed := uint64(13); seed <= 24; seed++ {
		rep := CheckScenario(Generate(seed), Options{})
		if !rep.OK() {
			t.Fatalf("seed %d:\n%s", seed, rep.Format())
		}
		checked += rep.CalcChecked
		if rep.CalcChecked > 0 && (rep.CalcTight <= 0 || rep.CalcTight >= 1) {
			t.Errorf("seed %d: tightness ratio %.3f outside (0,1) with clean bounds",
				seed, rep.CalcTight)
		}
	}
	if checked == 0 {
		t.Error("no session was bound-checked in 12 seeds; the battery is dead")
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
// bounds makes the calculus battery fail, the shrinker preserves a
// calc-* violation, and the written repro carries the scale so it
// replays with default options.
func TestCalculusBoundScaleShrinksAndReplays(t *testing.T) {
	sc := calcScenario(8)
	opt := Options{BoundScale: 0.5}
	rep := CheckScenario(sc, opt)
	found := false
	for _, v := range rep.Violations {
		if v.Check == "calc-delay-bound" || v.Check == "calc-backlog-bound" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bound scale 0.5 produced no calc violation:\n%s", rep.Format())
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

// TestCalcBoundsSkipsCycle: routes that order the links cyclically have
// no sound propagation order; the analysis must skip, not bound.
func TestCalcBoundsSkipsCycle(t *testing.T) {
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
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	an := calcBounds(&sc, calcFIFO)
	if !an.skipped || !strings.Contains(an.reason, "cyclic") {
		t.Fatalf("cyclic routes not skipped: skipped=%v reason=%q", an.skipped, an.reason)
	}
	// The battery itself must stay quiet (no checks, no violations).
	rep := CheckScenario(sc, Options{})
	if !rep.OK() {
		t.Fatalf("cyclic scenario produced violations:\n%s", rep.Format())
	}
	if rep.CalcChecked != 0 {
		t.Errorf("cyclic scenario claims %d checked sessions", rep.CalcChecked)
	}
}

// TestCalcBoundsHandComputed pins the single-link analysis against the
// closed form: aggregate TB(0.8C, N*L) at capacity C gives per-session
// delay bound (N*L)/C + L/C and per-flow backlog L + L*... computed
// directly from the one-flow leftover-service bound.
func TestCalcBoundsHandComputed(t *testing.T) {
	sc := calcScenario(4)
	an := calcBounds(&sc, calcFIFO)
	if an.skipped {
		t.Fatalf("designed scenario skipped: %s", an.reason)
	}
	const capBps, lpkt = 1.536e6, 424.0
	wantDelay := 4*lpkt/capBps + lpkt/capBps
	for id := 1; id <= 4; id++ {
		if got := an.delay[id]; !closeTo(got, wantDelay, 1e-12) {
			t.Errorf("session %d delay bound %.12g, want %.12g", id, got, wantDelay)
		}
		if len(an.backlog[id]) != 1 {
			t.Fatalf("session %d: want 1 hop of backlog bounds, got %d", id, len(an.backlog[id]))
		}
		// Per-flow backlog can never exceed the flow's own arrivals in
		// the shared busy period and never be below its burst plus the
		// packetization term.
		b := an.backlog[id][0]
		if b < lpkt || b > 4*lpkt+lpkt {
			t.Errorf("session %d backlog bound %.1f bits outside [%g, %g]", id, b, lpkt, 5*lpkt)
		}
	}
	// Busy-period mode bounds the same scenario more loosely (or
	// equally): B* = sigma/(C - rho) >= sigma/C.
	busy := calcBounds(&sc, calcBusy)
	if busy.skipped {
		t.Fatalf("busy mode skipped: %s", busy.reason)
	}
	if busy.delay[1] < an.delay[1]-lpkt/capBps {
		t.Errorf("busy-period bound %.9f below fluid FIFO bound %.9f", busy.delay[1], an.delay[1])
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

func closeTo(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
