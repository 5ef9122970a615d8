package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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
	atPurge := run.all[0].sess.Delivered
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
		"resetup":         `{"churn": [{"session": 1, "release": 1, "resetup": 2}]}`,
		"inverted window": `{"links": [{"port": "n1", "down": 3, "up": 2}]}`,
	}
	for name, plan := range cases {
		doc := strings.TrimSuffix(strings.TrimSpace(validScenario), "}") + `, "faults": ` + plan + "}"
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
