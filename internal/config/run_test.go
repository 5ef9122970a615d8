package config

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"leaveintime/internal/metrics"
)

// TestSlicedRunMatchesOneShot: advancing a Prepared run in many small
// slices must produce results identical to Scenario.Run — slicing is
// the daemon's control-poll mechanism and must not perturb the
// simulated history.
func TestSlicedRunMatchesOneShot(t *testing.T) {
	s, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Start()
	slices := 0
	for until := 0.1; !run.RunSlice(until); until += 0.1 {
		slices++
	}
	if slices < 50 {
		t.Fatalf("only %d slices ran; the slicing path was not exercised", slices)
	}
	sliced := run.Finish()
	a, _ := json.Marshal(oneShot)
	b, _ := json.Marshal(sliced)
	if string(a) != string(b) {
		t.Errorf("sliced run diverged:\none-shot: %s\nsliced:   %s", a, b)
	}
}

// TestPurgeSessionMidRun: purging between slices stops the session's
// traffic, keeps its delivered-so-far statistics, frees its
// reservation (a same-shaped session can be admitted again... at the
// library layer; here we just verify the removal side), and is
// idempotent.
func TestPurgeSessionMidRun(t *testing.T) {
	s, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Start()
	run.RunSlice(5)
	if !run.PurgeSession(1) {
		t.Fatal("live session not purged")
	}
	if run.PurgeSession(1) {
		t.Error("double purge reported success")
	}
	if run.PurgeSession(0) || run.PurgeSession(99) {
		t.Error("out-of-range purge reported success")
	}
	atPurge := run.all[0].Sess.Delivered
	if atPurge == 0 {
		t.Fatal("nothing delivered before the purge; test is vacuous")
	}
	run.RunSlice(s.Duration)
	res := run.Finish()
	if res.Sessions[0].Delivered != atPurge {
		t.Errorf("purged session kept delivering: %d then %d", atPurge, res.Sessions[0].Delivered)
	}
	if res.Sessions[1].Delivered == 0 {
		t.Error("surviving session starved after sibling purge")
	}
}

// faultScenario wraps validScenario's body with a fault plan: one link
// outage, one stall, one release-only churn.
func faultScenario(t *testing.T, plan string) *Scenario {
	t.Helper()
	doc := strings.TrimSuffix(strings.TrimSpace(validScenario), "}") + `, "faults": ` + plan + "}"
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFaultPlanFromJSON(t *testing.T) {
	s := faultScenario(t, `{
	  "links":  [{"port": "n2", "down": 2, "up": 3}],
	  "stalls": [{"session": 2, "from": 4, "to": 5}],
	  "churn":  [{"session": 1, "release": 6}]
	}`)
	res, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].Delivered == 0 || res.Sessions[1].Delivered == 0 {
		t.Fatalf("faulted run delivered nothing: %+v", res.Sessions)
	}
	// The released session must stop at its churn instant: rerun
	// without faults and compare.
	clean, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	full, err := clean.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].Delivered >= full.Sessions[0].Delivered {
		t.Errorf("released session delivered %d, full run %d — release had no effect",
			res.Sessions[0].Delivered, full.Sessions[0].Delivered)
	}
}

// TestEmptyFaultPlanIsByteIdentical: a present-but-empty plan must not
// perturb the run (the fault-free-identity contract).
func TestEmptyFaultPlanIsByteIdentical(t *testing.T) {
	s := faultScenario(t, `{}`)
	withPlan, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	without, err := clean.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withPlan, without) {
		t.Errorf("empty fault plan changed the run:\nwith:    %+v\nwithout: %+v", withPlan, without)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	cases := map[string]string{
		"unknown port":    `{"links": [{"port": "zzz", "down": 1, "up": 2}]}`,
		"unknown node":    `{"nodes": [{"node": "zzz", "down": 1, "up": 2}]}`,
		"unknown session": `{"stalls": [{"session": 9, "from": 1, "to": 2}]}`,
		"churn unknown":   `{"churn": [{"session": 0, "release": 1}]}`,
		"inverted window": `{"links": [{"port": "n1", "down": 3, "up": 2}]}`,
	}
	for name, plan := range cases {
		doc := strings.TrimSuffix(strings.TrimSpace(validScenario), "}") + `, "faults": ` + plan + "}"
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A churn cycle that sets its session up again is a plan like any
	// other: the session comes back through a SETUP at every hop.
	s := faultScenario(t, `{"churn": [{"session": 1, "release": 1, "resetup": 2}]}`)
	reg := metrics.NewRegistry()
	res, err := s.RunWithMetrics(reg)
	if err != nil {
		t.Fatal(err)
	}
	if f := reg.Snapshot(s.Duration).Faults; f.Releases != 1 || f.Resetups != 1 || f.ResetupRejects != 0 {
		t.Errorf("fault counters %+v, want one release and one re-SETUP", f)
	}
	if res.Sessions[0].Delivered == 0 {
		t.Error("the churned session delivered nothing")
	}
}

// TestFaultTelemetryCountsThePlan: fault.releases counts the plan's
// releases, and a stall window that opens after its session's release
// begins nothing.
func TestFaultTelemetryCountsThePlan(t *testing.T) {
	s := mustParse(t, `{"lmax": 424, "duration": 2, "seed": 1,
	  "servers": [{"name": "t1", "capacity": 1536000, "gamma": 0.001}],
	  "sessions": [
	    {"rate": 32000, "route": ["t1"], "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}},
	    {"rate": 32000, "route": ["t1"], "source": {"kind": "deterministic", "interval": 0.01325, "length": 424}}],
	  "faults": {"churn": [{"session": 1, "release": 0.5}], "stalls": [{"session": 1, "from": 1, "to": 1.5}]}}`)
	reg := metrics.NewRegistry()
	if _, err := s.RunWithMetrics(reg); err != nil {
		t.Fatal(err)
	}
	if f := reg.Snapshot(s.Duration).Faults; f.Releases != 1 || f.Stalls != 0 {
		t.Errorf("fault.releases = %d, fault.stalls = %d; want 1 and 0", f.Releases, f.Stalls)
	}
}

// churnDoc is an ON-OFF voice session and a Poisson session on one T1
// link; the voice session is released at 0.5 s and set up again at 1 s.
const churnDoc = `{"lmax": 424, "duration": 2, "seed": 1,
  "servers": [{"name": "t1", "capacity": 1536000, "gamma": 0.001}],
  "sessions": [
    {"rate": 32000, "route": ["t1"], "source": {"kind": "onoff", "t": 0.01325, "length": 424, "mean_on": 0.05, "mean_off": 0.05, "seed": 3}},
    {"rate": 64000, "route": ["t1"], "source": {"kind": "poisson", "mean": 0.004, "length": 424}}],
  "faults": {"churn": [{"session": 1, "release": 0.5, "resetup": 1}]}}`

// TestResetupKeepsEarlierDelays: a session set up again reports the
// delays of every packet it delivered, its first incarnation's
// included, so bound_holds judges every packet counted.
func TestResetupKeepsEarlierDelays(t *testing.T) {
	s := mustParse(t, churnDoc)
	run, err := s.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	first := run.Conns()[0].Sess
	run.Start()
	run.RunSlice(s.Duration)
	res, c := run.Finish().Sessions[0], run.Conns()[0]
	if c.Sess == first || first.Delivered == 0 || c.Sess.Delivered == first.Delivered {
		t.Fatalf("session 1 was not set up again with packets on both sides (first %d, total %d)", first.Delivered, c.Sess.Delivered)
	}
	if n := c.Sess.Delays.Count(); n != res.Delivered {
		t.Errorf("delays over %d packets, %d delivered", n, res.Delivered)
	}
	if res.MaxDelay < first.Delays.Max() || res.Jitter < first.Delays.Jitter() {
		t.Errorf("max delay %g, jitter %g below the first incarnation's %g, %g",
			res.MaxDelay, res.Jitter, first.Delays.Max(), first.Delays.Jitter())
	}
}

// TestPurgeIsFinal: a session a client purged stays out; the churn
// cycle that would set it up again neither does nor counts it.
func TestPurgeIsFinal(t *testing.T) {
	for _, at := range []float64{0.25, 0.75} { // before and after the plan's release
		s := mustParse(t, churnDoc)
		reg := metrics.NewRegistry()
		run, err := s.Prepare(reg)
		if err != nil {
			t.Fatal(err)
		}
		run.Start()
		run.RunSlice(at)
		run.PurgeSession(1)
		atPurge := run.Conns()[0].Sess.Delivered
		run.RunSlice(s.Duration)
		if got := run.Finish().Sessions[0].Delivered; got != atPurge {
			t.Errorf("purge at %gs: %d delivered at the purge, %d at the end", at, atPurge, got)
		}
		if f := reg.Snapshot(s.Duration).Faults; f.Resetups != 0 || f.ResetupRejects != 0 {
			t.Errorf("purge at %gs: fault.resetups = %d, resetup_rejects = %d; want 0 and 0", at, f.Resetups, f.ResetupRejects)
		}
	}
}

// TestFaultedSessionsAreExempt runs a fault-plan repro the harness
// recorded: its plan churns sessions 1-3 and takes down n1->n2 (a link
// fault and an outage of n1) and n4->n5. Session 2, alone on n1->n2,
// exceeds its delay bound; that session, and every session churned or
// routed over a port the plan takes down, is exempt, and every other
// session's bound holds. Without the churn the links still exempt
// sessions 1 and 2.
func TestFaultedSessionsAreExempt(t *testing.T) {
	data, err := os.ReadFile("../simcheck/testdata/old_churn_seed5.json")
	if err != nil {
		t.Fatal(err)
	}
	s := mustParse(t, string(data))
	res, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false, false, false}
	for i, sr := range res.Sessions {
		if sr.Exempt != want[i] {
			t.Errorf("%s: exempt %v, want %v", sr.Name, sr.Exempt, want[i])
		}
		if !sr.Exempt && !sr.BoundHolds {
			t.Errorf("%s: max delay %g against bound %g, and nothing exempts it", sr.Name, sr.MaxDelay, sr.DelayBound)
		}
	}
	if s2 := res.Sessions[1]; s2.BoundHolds {
		t.Errorf("s2 holds its bound (%g < %g): the document no longer shows what exempts it", s2.MaxDelay, s2.DelayBound)
	}
	s.Faults.Churn = nil
	if got, want := s.Exempt(), []bool{true, true, false, false, false, false}; !reflect.DeepEqual(got, want) {
		t.Errorf("without churn: exempt %v, want %v", got, want)
	}
}
