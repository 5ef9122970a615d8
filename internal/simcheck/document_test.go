package simcheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leaveintime/internal/config"
	"leaveintime/internal/metrics"
)

// TestGeneratedDocumentsRunDeclaratively: what the generator emits is a
// document the declarative runner accepts and runs. The System behind
// config.Prepare must admit every session the generator's own
// controllers admitted — procedure 3 and per-link r_frac classes
// included — and every session must keep its eq. 12 bound there too.
func TestGeneratedDocumentsRunDeclaratively(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	procs := map[int]bool{}
	for seed := uint64(1); seed <= seeds; seed++ {
		data, err := json.Marshal(Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := config.Parse(data)
		if err != nil {
			t.Fatalf("seed %d: generated document refused: %v", seed, err)
		}
		procs[doc.Proc] = true
		res, err := doc.RunWithMetrics(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range res.Sessions {
			if !s.BoundHolds || s.DelayBound == 0 {
				t.Errorf("seed %d session %s: max delay %g against bound %g", seed, s.Name, s.MaxDelay, s.DelayBound)
			}
		}
	}
	if !procs[1] || !procs[2] || !procs[3] {
		t.Errorf("procedures run: %v, want 1, 2 and 3", procs)
	}
}

// TestChurnDocumentsRun: every generated fault plan, re-SETUPs
// included, is a document the runner litrun and litserve use accepts
// and runs, and the plans that set a session up again count their
// re-SETUPs in the run's telemetry.
func TestChurnDocumentsRun(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	var resetups int64
	for seed := uint64(1); seed <= seeds; seed++ {
		data, err := json.Marshal(GenerateChurn(seed))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := config.Parse(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reg := metrics.NewRegistry()
		if _, err := doc.RunWithMetrics(reg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		resetups += reg.Snapshot(doc.Duration).Faults.Resetups
	}
	if resetups == 0 {
		t.Error("no re-SETUP in any generated plan")
	}
}

// TestOldDialectReproReplays: repros litcheck wrote under -bound-scale
// 0.02 in the dialect it had before it shared the scenario document (one
// shrunk from a clean seed, two chaos plans left whole; procedures 1 and
// 3, all four source models), rewritten once as documents, replay to the
// report that binary printed for them, byte for byte — the clean one's
// recording extended, below the two lines that binary printed, by what
// the class and calculus batteries it now always replays under add. The
// dialect itself is no longer read: with none of a document's keys, such
// a file is an invalid scenario.
func TestOldDialectReproReplays(t *testing.T) {
	files, err := filepath.Glob("testdata/old_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no recorded repros: %v", err)
	}
	for _, path := range files {
		want, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Format(); got != string(want) {
			t.Errorf("%s:\n--- recorded ---\n%s--- replayed ---\n%s", path, want, got)
		}
	}

	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"seed": 1, "l_max_bits": 600, "duration_s": 0.04,
		"topology": {"kind": "cross", "links": [{"from": "n0", "to": "n1", "capacity_bps": 1e6, "gamma_s": 5e-4}]},
		"proc": 1, "sessions": [{"id": 1, "from": "n0", "to": "n1", "rate_bps": 85632, "class": 1,
		"l_min_bits": 300, "l_max_bits": 533, "burst_bits": 1600, "source": {"kind": "cbr"}}],
		"bound_scale": 0.02}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "invalid-scenario: config: duration must be positive"
	if len(rep.Violations) != 1 || rep.Violations[0].Check+": "+rep.Violations[0].Detail != want {
		t.Errorf("old-dialect file: violations %v, want %q", rep.Violations, want)
	}
}

// TestReproIsADocument: a written repro is accepted by config.Parse as
// it stands (the check object is an unknown key there), and it carries
// the harness keys for Replay.
func TestReproIsADocument(t *testing.T) {
	sc, _ := Shrink(Generate(1), Options{BoundScale: 0.02})
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, sc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := config.Parse(data); err != nil {
		t.Fatalf("config.Parse refuses a repro: %v", err)
	}
	var keys struct {
		Check map[string]any `json:"check"`
	}
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if keys.Check["kind"] != sc.Check.Kind || keys.Check["bound_scale"] != 0.02 {
		t.Errorf("check object = %v", keys.Check)
	}
	if strings.Contains(string(data), "topology") {
		t.Error("the repro is written in the retired dialect")
	}
}

// TestReplayAnyDocument: the battery runs on a document nobody
// generated. examples/scenario.json has three sessions with b0, whose
// bounds are checked, and two without, which only the rest of the
// battery covers; no discipline violates anything on it. (CI replays
// the whole file through the CLI; here its first ten seconds.)
func TestReplayAnyDocument(t *testing.T) {
	sc, err := LoadCase("../../examples/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 10
	rep := CheckScenario(sc, Options{})
	if !rep.OK() {
		t.Fatalf("violations on examples/scenario.json:\n%s", rep.Format())
	}
	if rep.Topology != "document" || rep.Proc != 1 || rep.Sessions != 5 || len(rep.Disciplines) < 14 {
		t.Errorf("report header: %s", rep.Format())
	}
	// The sessions without b0 must not have been bound-checked against a
	// zero bound, nor have silenced the others: tightening shows exactly
	// the declared ones.
	sc.Duration = 5
	hit := map[int]bool{}
	for _, v := range CheckScenario(sc, Options{BoundScale: 0.01}).Violations {
		if v.Check == "delay-bound" {
			hit[v.Session] = true
		}
	}
	if !hit[1] || !hit[2] || !hit[3] || hit[4] || hit[5] {
		t.Errorf("bound checks under tightening hit sessions %v, want 1, 2, 3 only", hit)
	}
}

// TestReplayRefusesAnIDPastTheTable: a document with an id in the
// trillions is refused as invalid before any network is built. It once
// ended the process with the runtime's out-of-memory exit, which no
// recover sees, when the harness handed document ids to the network as
// they stood.
func TestReplayRefusesAnIDPastTheTable(t *testing.T) {
	sc, err := LoadCase("../../examples/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Sessions[1].ID = 4000000000000
	rep := CheckScenario(sc, Options{})
	if len(rep.Violations) != 1 || rep.Violations[0].Check != "invalid-scenario" ||
		!strings.Contains(rep.Violations[0].Detail, "session 1 has id 4000000000000") {
		t.Fatalf("report:\n%s", rep.Format())
	}
}

// TestReplayNamesRefusedSession: a document whose sessions the
// admission rules do not all admit is reported as an admission-replay
// violation that names the session refused.
func TestReplayNamesRefusedSession(t *testing.T) {
	sc, err := LoadCase("../../examples/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	extra := sc.Sessions[1]
	extra.ID, extra.Name, extra.Route = 9, "late", []string{"sw1"} // sw1 is fully booked
	sc.Sessions = append(sc.Sessions, extra)
	rep := CheckScenario(sc, Options{})
	if len(rep.Violations) == 0 {
		t.Fatalf("an overbooked link was admitted:\n%s", rep.Format())
	}
	for _, v := range rep.Violations {
		if v.Check != "admission-replay" || v.Session != 9 {
			t.Errorf("violation %+v, want admission-replay naming session 9", v)
		}
	}
}
