package simcheck

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// churnSeed returns a seed whose chaos plan actually churns sessions
// (releases at minimum; most also carry link faults or stalls), so the
// tests below exercise the full teardown/re-SETUP path.
func churnSeed(t *testing.T, from uint64) uint64 {
	t.Helper()
	for seed := from; seed < from+50; seed++ {
		sc := GenerateChurn(seed)
		if len(sc.Faults.Churn) > 0 {
			return seed
		}
	}
	t.Fatal("no churning seed in 50 tries")
	return 0
}

// TestGenerateChurnDeterministic: a chaos scenario is a pure function
// of its seed, carries a valid fault plan, and distinct seeds get
// distinct plans.
func TestGenerateChurnDeterministic(t *testing.T) {
	nonEmpty := 0
	for seed := uint64(1); seed <= 10; seed++ {
		a := GenerateChurn(seed)
		b := GenerateChurn(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different chaos scenarios", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d generated an invalid chaos scenario: %v", seed, err)
		}
		if !a.Faults.Empty() {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("no seed in 1..10 carries any fault — the chaos layer is dead")
	}
}

// TestGenerateChurnSharesBase: every churn seed has a fault-free twin —
// GenerateChurn derives exactly Generate's scenario plus a plan, so a
// failure under chaos can be diffed against the same topology, sessions
// and traffic running clean.
func TestGenerateChurnSharesBase(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		churned := GenerateChurn(seed)
		churned.Faults = nil // the generated document is this test's own
		if base := Generate(seed); !reflect.DeepEqual(churned, base) {
			t.Fatalf("seed %d: chaos scenario diverges from its fault-free twin", seed)
		}
	}
}

// TestChurnSeedsClean: the graceful-degradation battery holds over a
// block of chaos seeds (the one after TestSeedsClean's) — survivors meet
// bounds, capacity returns to zero, conservation counts fault drops —
// and the reports are marked as churn runs.
func TestChurnSeedsClean(t *testing.T) {
	for seed := uint64(13); seed <= 20; seed++ {
		rep := CheckScenario(GenerateChurn(seed), Options{})
		if !rep.OK() {
			t.Fatalf("seed %d:\n%s", seed, rep.Format())
		}
		if !rep.Churn {
			t.Errorf("seed %d: report not marked as a churn run", seed)
		}
		if len(rep.Disciplines) == 0 || rep.Disciplines[0].Delivered == 0 {
			t.Errorf("seed %d: no packets delivered under chaos", seed)
		}
	}
}

// TestChurnReportDeterministic: same chaos seed, byte-identical report.
func TestChurnReportDeterministic(t *testing.T) {
	seed := churnSeed(t, 1)
	a := CheckScenario(GenerateChurn(seed), Options{}).Format()
	b := CheckScenario(GenerateChurn(seed), Options{}).Format()
	if a != b {
		t.Fatalf("seed %d churn report not deterministic:\n--- first ---\n%s--- second ---\n%s", seed, a, b)
	}
	if !strings.Contains(a, " churn ") && !strings.Contains(a, " churn\n") {
		t.Errorf("report header does not mark the churn mode:\n%s", a)
	}
}

// TestChurnReproRoundTrip: a chaos scenario written to disk replays
// byte-identically — the fault plan is part of the repro, so a chaotic
// failure reproduces exactly from the JSON artifact alone.
func TestChurnReproRoundTrip(t *testing.T) {
	seed := churnSeed(t, 1)
	sc := GenerateChurn(seed)
	rep := CheckScenario(sc, Options{})
	if !rep.Churn {
		t.Fatal("CheckScenario did not enter the churn battery")
	}

	path := filepath.Join(t.TempDir(), "churn_repro.json")
	if err := WriteRepro(path, sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, sc) {
		t.Fatal("chaos scenario did not survive the JSON round trip")
	}
	replayed, err := Replay(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Format() != rep.Format() {
		t.Errorf("replay differs from the original run:\n--- original ---\n%s--- replay ---\n%s",
			rep.Format(), replayed.Format())
	}
}

// TestWatchdogAbortsUnbounded: a run whose event budget is exhausted is
// cut short with a "watchdog" violation and still reports partial
// telemetry — the discipline summaries survive the abort — instead of
// hanging the worker. This is the harness's containment guarantee for
// livelocked or runaway seeds.
func TestWatchdogAbortsUnbounded(t *testing.T) {
	seed := churnSeed(t, 1)
	rep := CheckScenario(GenerateChurn(seed), Options{MaxEvents: 200})
	if rep.OK() {
		t.Fatal("a 200-event budget did not trip on a full chaos run")
	}
	tripped := false
	for _, v := range rep.Violations {
		switch v.Check {
		case "watchdog":
			tripped = true
		case "panic":
			t.Fatalf("watchdog abort panicked instead of degrading: %s", v.Detail)
		}
	}
	if !tripped {
		t.Fatalf("no watchdog violation in the report:\n%s", rep.Format())
	}
	if len(rep.Disciplines) == 0 {
		t.Fatal("tripped run reported no partial telemetry")
	}
	// The abort itself must be deterministic: same seed, same budget,
	// byte-identical partial report.
	again := CheckScenario(GenerateChurn(seed), Options{MaxEvents: 200})
	if rep.Format() != again.Format() {
		t.Fatalf("tripped report not deterministic:\n--- first ---\n%s--- second ---\n%s",
			rep.Format(), again.Format())
	}
}

// TestPanicRecovered: a panic anywhere inside the battery becomes a
// "panic" violation in an otherwise well-formed report, so a crashing
// seed yields a repro instead of taking down the whole litcheck run.
// No Validate-passing scenario can be made to panic from the outside,
// so the recovery path is driven through the package's test seam.
func TestPanicRecovered(t *testing.T) {
	checkPanicHook = func() { panic("injected crash") }
	defer func() { checkPanicHook = nil }()
	rep := CheckScenario(Generate(1), Options{})
	if rep.OK() {
		t.Fatal("injected panic vanished")
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Check != "panic" ||
		!strings.Contains(rep.Violations[0].Detail, "injected crash") {
		t.Fatalf("panic not recovered into a panic violation:\n%s", rep.Format())
	}
}
