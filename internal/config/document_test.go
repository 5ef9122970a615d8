package config

import (
	"fmt"
	"math"
	"testing"
	"time"

	"leaveintime/internal/metrics"
)

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, doc string) *Result {
	t.Helper()
	res, err := mustParse(t, doc).RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// linkDoc is a fan-out of two link servers leaving node a, named by
// their default from->to, with an optional fault plan.
func linkDoc(faults string) string {
	return `{"lmax": 424, "duration": 4, "seed": 1,
	  "servers": [{"from": "a", "to": "b", "capacity": 1536000, "gamma": 0.001},
	              {"from": "a", "to": "c", "capacity": 1536000, "gamma": 0.001},
	              {"from": "b", "to": "d", "capacity": 1536000, "gamma": 0.001}],
	  "sessions": [
	    {"rate": 32000, "route": ["a->b", "b->d"], "b0": 424,
	     "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}},
	    {"name": "side", "rate": 32000, "route": ["a->c"], "b0": 424,
	     "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}},
	    {"name": "far", "rate": 32000, "route": ["b->d"], "b0": 424,
	     "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}}]` + faults + `}`
}

// TestLinkServers: a server given by from/to is named from->to, an
// unnamed session is reported by its id, and a node fault addresses
// from: it takes down every server leaving the node and no other.
func TestLinkServers(t *testing.T) {
	clean := mustRun(t, linkDoc(""))
	if clean.Sessions[0].Name != "s1" || clean.Sessions[1].Name != "side" {
		t.Errorf("session names %q, %q", clean.Sessions[0].Name, clean.Sessions[1].Name)
	}
	down := mustRun(t, linkDoc(`, "faults": {"nodes": [{"node": "a", "down": 1, "up": 3}]}`))
	// Packets queue behind a failed link and leave when it is restored.
	for i, want := range []bool{true, true, false} {
		if held := down.Sessions[i].MaxDelay > 1; held != want {
			t.Errorf("session %s: max delay %g s with node a down for 2 s, held = %v want %v",
				clean.Sessions[i].Name, down.Sessions[i].MaxDelay, held, want)
		}
	}
	for _, node := range []string{"a->b", "d"} { // a server's name and a to are not nodes to fail
		doc := linkDoc(fmt.Sprintf(`, "faults": {"nodes": [{"node": %q, "down": 1, "up": 3}]}`, node))
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("node fault on %q accepted", node)
		}
	}
}

// TestProcedure3Document: proc 3 reaches the System through the
// document, and d is the per-node service parameter of eq. 12: over N
// hops the bound moves by N times the change in d.
func TestProcedure3Document(t *testing.T) {
	doc := func(d float64) string {
		return fmt.Sprintf(`{"lmax": 424, "proc": 3, "duration": 2, "seed": 1,
		  "servers": [{"from": "a", "to": "b", "capacity": 1536000, "gamma": 0.001},
		              {"from": "b", "to": "c", "capacity": 768000, "gamma": 0.002}],
		  "sessions": [{"rate": 32000, "route": ["a->b", "b->c"], "d": %g, "b0": 424,
		     "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}}]}`, d)
	}
	a, b := mustRun(t, doc(0.02)).Sessions[0], mustRun(t, doc(0.05)).Sessions[0]
	if !a.BoundHolds || !b.BoundHolds || a.Delivered == 0 {
		t.Fatalf("procedure 3 runs: %+v, %+v", a, b)
	}
	if got := b.DelayBound - a.DelayBound; math.Abs(got-2*0.03) > 1e-12 {
		t.Errorf("bound moved by %g for d + 0.03 over two hops, want 0.06", got)
	}
	// Inequality (19) is the admission test: d below L/r on a full link
	// is refused by Prepare, not by Parse.
	s := mustParse(t, `{"lmax": 424, "proc": 3, "duration": 1,
	  "servers": [{"name": "n", "capacity": 64000}],
	  "sessions": [
	    {"rate": 32000, "route": ["n"], "d": 0.001, "source": {"kind": "greedy", "rate": 32000, "length": 424}},
	    {"rate": 32000, "route": ["n"], "d": 0.001, "source": {"kind": "greedy", "rate": 32000, "length": 424}}]}`)
	if _, err := s.Prepare(nil); err == nil {
		t.Error("inequality (19) admitted two sessions with d far below L/r on a full link")
	}
}

// TestRFracClasses: r_frac resolves against each server's capacity, so
// one class list satisfies R_P = C on links of different capacities,
// which no list of absolute r can.
func TestRFracClasses(t *testing.T) {
	doc := func(classes string) string {
		return `{"lmax": 424, "proc": 2, "duration": 1, "seed": 1, "classes": ` + classes + `,
		  "servers": [{"from": "a", "to": "b", "capacity": 1536000}, {"from": "b", "to": "c", "capacity": 768000}],
		  "sessions": [{"rate": 32000, "route": ["a->b", "b->c"], "class": 1, "b0": 424,
		     "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}}]}`
	}
	res := mustRun(t, doc(`[{"r_frac": 0.5, "sigma": 0.004}, {"r_frac": 1, "sigma": 0.008}]`))
	if !res.Sessions[0].BoundHolds || res.Sessions[0].DelayBound == 0 {
		t.Errorf("r_frac classes: %+v", res.Sessions[0])
	}
	if _, err := Parse([]byte(doc(`[{"r": 768000, "sigma": 0.004}, {"r": 1536000, "sigma": 0.008}]`))); err == nil {
		t.Error("absolute classes accepted on links of two capacities")
	}
	// On one link the two spellings are the same class table.
	one := func(classes string) float64 {
		return mustRun(t, `{"lmax": 424, "proc": 1, "duration": 1, "classes": `+classes+`,
		  "servers": [{"name": "n", "capacity": 1536000}],
		  "sessions": [{"rate": 32000, "route": ["n"], "class": 1, "b0": 424,
		     "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}}]}`).Sessions[0].DelayBound
	}
	if a, b := one(`[{"r_frac": 0.5, "sigma": 0.004}, {"r_frac": 1, "sigma": 0.008}]`),
		one(`[{"r": 768000, "sigma": 0.004}, {"r": 1536000, "sigma": 0.008}]`); a != b {
		t.Errorf("bounds differ between r_frac and r: %g, %g", a, b)
	}
}

// TestSessionIDs: fault plans and purges name a session by its id, not
// by its position.
func TestSessionIDs(t *testing.T) {
	doc := func(faults string) string {
		return `{"lmax": 424, "duration": 4, "seed": 1, "servers": [{"name": "n", "capacity": 1536000}],
		  "sessions": [
		    {"id": 7, "rate": 32000, "route": ["n"], "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}},
		    {"id": 3, "rate": 32000, "route": ["n"], "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}}]` + faults + `}`
	}
	res := mustRun(t, doc(`, "faults": {"churn": [{"session": 7, "release": 1}]}`))
	if res.Sessions[0].Name != "s7" || res.Sessions[0].Delivered >= res.Sessions[1].Delivered {
		t.Errorf("release of session 7: %+v", res.Sessions)
	}
	if _, err := Parse([]byte(doc(`, "faults": {"churn": [{"session": 1, "release": 1}]}`))); err == nil {
		t.Error("a plan naming position 1 accepted where ids are 7 and 3")
	}
	run, err := mustParse(t, doc("")).Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.PurgeSession(1) || !run.PurgeSession(3) || run.PurgeSession(3) {
		t.Error("purge does not go by id")
	}
}

// TestLimitBuffers: limit_buffers caps the session's buffer at the
// Section 3.3 bound. A source that keeps to its b0 loses nothing; one
// that sends at twice its reservation into a regulated second hop
// overflows it and is dropped there.
func TestLimitBuffers(t *testing.T) {
	drops := func(sourceRate float64) (dropped int64) {
		s := mustParse(t, fmt.Sprintf(`{"lmax": 424, "duration": 5, "seed": 1,
		  "servers": [{"from": "a", "to": "b", "capacity": 1536000}, {"from": "b", "to": "c", "capacity": 1536000}],
		  "sessions": [{"rate": 32000, "route": ["a->b", "b->c"], "jitter_control": true, "b0": 424, "limit_buffers": true,
		     "source": {"kind": "greedy", "rate": %g, "length": 424}}]}`, sourceRate))
		reg := metrics.NewRegistry()
		if _, err := s.RunWithMetrics(reg); err != nil {
			t.Fatal(err)
		}
		for _, pc := range reg.PortCounters() {
			dropped += pc.DroppedPackets
		}
		return dropped
	}
	if d := drops(32000); d != 0 {
		t.Errorf("conforming source dropped %d packets at buffers provisioned at the bound", d)
	}
	if d := drops(64000); d == 0 {
		t.Error("a source at twice its reservation never overflowed its limited buffers")
	}
}

// TestSourceSeedAndVarlen: a seeded source owns its stream, whatever
// the scenario seed and whoever is declared before it; an unseeded one
// takes the scenario's next split. varlen draws lengths over
// lmin..lmax under a shaper and keeps its bound.
func TestSourceSeedAndVarlen(t *testing.T) {
	doc := func(scenarioSeed int, first string) string {
		return fmt.Sprintf(`{"lmax": 424, "duration": 5, "seed": %d, "servers": [{"name": "n", "capacity": 1536000}],
		  "sessions": [%s
		    {"name": "own", "rate": 64000, "route": ["n"], "lmin": 200, "lmax": 424, "b0": 848,
		     "source": {"kind": "varlen", "seed": 99, "mean": 0.005, "length": 424, "shape_rate": 64000, "shape_b0": 848}},
		    {"name": "shared", "rate": 64000, "route": ["n"],
		     "source": {"kind": "poisson", "mean": 0.005, "length": 424}}]}`, scenarioSeed, first)
	}
	extra := `{"rate": 64000, "route": ["n"], "source": {"kind": "poisson", "mean": 0.005, "length": 424}},`
	a, b, c := mustRun(t, doc(1, "")), mustRun(t, doc(2, "")), mustRun(t, doc(1, extra))
	if n := a.Sessions[0].Delivered; n != b.Sessions[0].Delivered || n != c.Sessions[1].Delivered {
		t.Errorf("seeded source moved with its surroundings: delivered %d, %d, %d",
			n, b.Sessions[0].Delivered, c.Sessions[1].Delivered)
	}
	if a.Sessions[1].Delivered == b.Sessions[1].Delivered {
		t.Error("unseeded source ignored the scenario seed")
	}
	own := a.Sessions[0]
	if !own.BoundHolds || own.Delivered == 0 || own.Jitter == 0 {
		t.Errorf("varlen session: %+v", own)
	}
}

// FuzzParse: whatever the bytes, Parse returns an error or a document
// that Prepare builds or refuses without panicking or hanging.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Prepare(nil) //nolint:errcheck // a refusal is an outcome
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("Prepare hangs on %q", data)
		}
	})
}
