package main

import (
	"os"
	"regexp"
	"testing"
)

// The tests run every workload with its simulated durations, standing
// set and probe lengths cut down, so that the whole file fits in ten
// seconds of the repository's test run. Op counts come from -seconds as
// in a real run.
func TestMain(m *testing.M) {
	tandemRun, metroRun, standing, openLoopCalls = 2, 3, 128, 400
	os.Exit(m.Run())
}

const tiny = 0.1 // -seconds: one op on the simulations, ~1100 calls on serve-t1

func TestWorkloadsRunCleanAndRepeat(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := measure(w, 1, tiny), measure(w, 1, tiny), measure(w, 2, tiny)
		for _, r := range []*result{a, b, c} {
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("%s seed %d: %d of %d ops failed: %v", w.name, r.Seed, r.Failed, r.Attempted, r.failures)
			}
			for _, d := range endToEnd {
				if m, ok := r.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
				}
			}
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a.Digest)
		}
	}
}

func TestInjectedFailuresAreCounted(t *testing.T) {
	w := findWorkload("tandem-voice48")
	r := newResult(w, 1, tiny, false)
	ti := &tandemInst{seed: 1, boundScale: 0.01} // eq. 12's bound cut a hundredfold
	runOps(w, ti, r, 0, 2)
	if r.Failed != 2 {
		t.Errorf("bound violation: %d of 2 ops failed, want 2: %v", r.Failed, r.failures)
	}

	w = findWorkload("serve-t1")
	r = newResult(w, 1, tiny, false)
	inst, err := w.open(1)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInst)
	s.wantStatus = 201 // the daemon answers an accepted SETUP with 200
	runOps(w, s, r, 0, 64)
	refused := 0
	for i := 0; i < 64; i++ {
		if s.oversize(i) {
			refused++
		}
	}
	if want := 64 - refused; r.Failed != want || refused == 0 {
		t.Errorf("wrong status: %d of 64 ops failed, want the %d that were not oversize: %v", r.Failed, want, r.failures)
	}
	// The SETUPs that "failed" were established and never released, so
	// the daemon's counters no longer match a clean client's: Close
	// must say so.
	if err := s.Close(); err == nil {
		t.Error("Close did not report that /v1/stats disagrees with the client's counts")
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	s, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if s.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the op counts are sized for %d", s.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, defs []metricDef, spec []specMetric) {
		if len(defs) != len(spec) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if d.name != spec[i].Name || d.unit != spec[i].Unit {
				t.Errorf("%s %d: the benchmark prints %s in %s, BENCHMARK.json has %s in %s", kind, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
			}
			if !name.MatchString(d.name) {
				t.Errorf("%s: bad name %q", kind, d.name)
			}
			if b := spec[i].Better; b != "lower" && b != "higher" {
				t.Errorf("%s: better is %q", d.name, b)
			}
		}
	}
	same("end_to_end", endToEnd, s.EndToEnd)
	same("per_layer", perLayer, s.PerLayer)
	ws := workloads()
	if len(ws) != len(s.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(ws), len(s.Workloads))
	}
	for i, w := range ws {
		if w.name != s.Workloads[i].Name || w.why != s.Workloads[i].Why || !name.MatchString(w.name) {
			t.Errorf("workload %d: %q (%q) against BENCHMARK.json's %q (%q)", i, w.name, w.why, s.Workloads[i].Name, s.Workloads[i].Why)
		}
	}
}

func checkSpans(t *testing.T, who string, tr *tracer) {
	t.Helper()
	if len(tr.spans) == 0 {
		t.Errorf("%s: no spans", who)
	}
	for _, s := range tr.spans {
		if s.Parent >= len(tr.spans) || s.Parent < -1 || s.Parent == s.ID {
			t.Errorf("%s: span %d (%s) has parent %d of %d spans", who, s.ID, s.Name, s.Parent, len(tr.spans))
		} else if s.Parent >= 0 && tr.spans[s.Parent].Op != s.Op {
			t.Errorf("%s: span %d (%s) of op %d has a parent of op %d", who, s.ID, s.Name, s.Op, tr.spans[s.Parent].Op)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", who, s.ID, s.Name)
		}
	}
	for name, tot := range tr.totals() {
		if tot.selfNs < 0 {
			t.Errorf("%s: spans %q have negative self time %d", who, name, tot.selfNs)
		}
	}
}

func TestEveryLayerRowHasAHome(t *testing.T) {
	got := rows{}
	for _, w := range workloads() {
		r := newResult(w, 1, tiny, true)
		tr := newTracer()
		lr, st, _ := w.layers(w, 1, min(w.traceMin, 64), tr, r)
		if r.Failed != 0 || st.ops == 0 {
			t.Errorf("%s: %d of %d traced ops failed: %v", w.name, r.Failed, r.Attempted, r.failures)
		}
		checkSpans(t, w.name, tr)
		for name, v := range lr {
			if _, dup := got[name]; dup {
				t.Errorf("%s: row %s has a second home", w.name, name)
			}
			got[name] = v
		}
	}
	// Five rows belong to whichever workload the run is for.
	if want := len(perLayer) - 5; len(got) != want {
		t.Errorf("the workloads' layers give %d rows, want %d", len(got), want)
	}
	for _, d := range perLayer[:len(perLayer)-5] {
		if _, ok := got[d.name]; !ok {
			t.Errorf("no workload measures %s", d.name)
		}
	}
}

func TestTracedRun(t *testing.T) {
	w := findWorkload("call-churn")
	r := traced(w, 1, tiny)
	if r.Failed != 0 || !r.Correct {
		t.Errorf("%d of %d ops failed: %v", r.Failed, r.Attempted, r.failures)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d rows, want %d", len(r.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			t.Errorf("the traced run did not print %s", d.name)
		}
	}
	if r.Metrics["shard.speedup_x"].Value <= 0 || r.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
		t.Errorf("speedup %v, overhead %v", r.Metrics["shard.speedup_x"], r.Metrics["bench.trace_overhead_ratio"])
	}
	if _, err := os.Stat("out/trace-call-churn.json"); err != nil {
		t.Error(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.05}
	steady := newSide([]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, "unchanged"},
		{[]float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "regressed"},
		{[]float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, "improved"},
		{[]float64{80, 120, 85, 115, 90, 110, 95, 105, 100, 101}, "unresolved"},
	} {
		if got := verdict(m, steady, newSide(c.b)); got != c.want {
			t.Errorf("b=%v: %s, want %s", c.b, got, c.want)
		}
	}
	// Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestTraceFlagSpellings(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--trace", "1"}, []string{"--workload", "x", "--trace=1"}},
		{[]string{"-trace", "0", "-seed", "2"}, []string{"-trace=0", "-seed", "2"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "-seed", "2"}},
		{[]string{"-trace"}, []string{"-trace"}},
	} {
		got := boolArgs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("%v: %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v: %v, want %v", c.in, got, c.want)
			}
		}
	}
}
