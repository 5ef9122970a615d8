package signaling

import (
	"errors"
	"math"
	"testing"

	"leaveintime/internal/admission"
	"leaveintime/internal/event"
)

func newPath(t *testing.T, sim *event.Simulator, n int, capacity float64) []*Node {
	t.Helper()
	var path []*Node
	for i := 0; i < n; i++ {
		ac, err := admission.NewProcedure1(capacity, []admission.Class{{R: capacity, Sigma: 1}})
		if err != nil {
			t.Fatal(err)
		}
		path = append(path, &Node{
			Name:       string(rune('A' + i)),
			Admit:      ac,
			Gamma:      1e-3,
			Processing: 0.5e-3,
		})
	}
	return path
}

func spec(id int, rate float64) admission.SessionSpec {
	return admission.SessionSpec{ID: id, Rate: rate, LMax: 424, LMin: 424}
}

func TestEstablishAccept(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 3, 1e6)
	sig := New(sim, path)
	var res Result
	sig.Establish(Request{Spec: spec(1, 1e5), Class: 1}, func(r Result) { res = r })
	sim.RunAll()
	if !res.Accepted {
		t.Fatalf("rejected: %v", res.Err)
	}
	if len(res.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	// Latency: 3 processing (0.5 ms) + forward 2 links + return 3
	// links = 1.5 + 2 + 3 = 6.5 ms.
	want := 3*0.5e-3 + 2*1e-3 + 3*1e-3
	if math.Abs(res.SetupLatency-want) > 1e-12 {
		t.Errorf("setup latency = %v, want %v", res.SetupLatency, want)
	}
	if !sig.Established(1) {
		t.Error("not recorded as established")
	}
}

func TestEstablishRejectReleasesUpstream(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 3, 1e6)
	// Fill the LAST node so the SETUP reserves at nodes 0 and 1, then
	// fails at 2.
	if _, err := path[2].Admit.Admit(spec(99, 1e6), 1, admission.Options{}); err != nil {
		t.Fatal(err)
	}
	sig := New(sim, path)
	var res Result
	sig.Establish(Request{Spec: spec(1, 1e5), Class: 1}, func(r Result) { res = r })
	sim.RunAll()
	if res.Accepted {
		t.Fatal("accepted through a full node")
	}
	if res.RejectedAt != 2 {
		t.Errorf("RejectedAt = %d", res.RejectedAt)
	}
	if !errors.Is(res.Err, admission.ErrRejected) {
		t.Errorf("err = %v", res.Err)
	}
	if sig.Established(1) {
		t.Error("rejected session recorded as established")
	}
	// Upstream budgets must be whole again: a full-rate session fits
	// at nodes 0 and 1.
	for i := 0; i < 2; i++ {
		if _, err := path[i].Admit.Admit(spec(100+i, 1e6), 1, admission.Options{}); err != nil {
			t.Errorf("node %d budget leaked: %v", i, err)
		}
	}
	// Reject latency: processing at 3 nodes + forward 2 + back 2.
	want := 3*0.5e-3 + 2*1e-3 + 2*1e-3
	if math.Abs(res.SetupLatency-want) > 1e-12 {
		t.Errorf("reject latency = %v, want %v", res.SetupLatency, want)
	}
}

func TestTeardownFreesEverything(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 2, 1e6)
	sig := New(sim, path)
	sig.Establish(Request{Spec: spec(1, 1e6), Class: 1}, func(Result) {})
	sim.RunAll()
	done := false
	if err := sig.Teardown(1, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if !done {
		t.Fatal("teardown completion not signaled")
	}
	if sig.Established(1) {
		t.Error("still recorded after teardown")
	}
	var res Result
	sig.Establish(Request{Spec: spec(2, 1e6), Class: 1}, func(r Result) { res = r })
	sim.RunAll()
	if !res.Accepted {
		t.Errorf("capacity not freed: %v", res.Err)
	}
}

func TestTeardownUnknownSession(t *testing.T) {
	sim := event.New()
	sig := New(sim, newPath(t, sim, 1, 1e6))
	if err := sig.Teardown(42, nil); err == nil {
		t.Error("teardown of unknown session succeeded")
	}
}

func TestDuplicateEstablish(t *testing.T) {
	sim := event.New()
	sig := New(sim, newPath(t, sim, 1, 1e6))
	sig.Establish(Request{Spec: spec(1, 1e5), Class: 1}, func(Result) {})
	sim.RunAll()
	var res Result
	sig.Establish(Request{Spec: spec(1, 1e5), Class: 1}, func(r Result) { res = r })
	sim.RunAll()
	if res.Accepted || !errors.Is(res.Err, ErrAlreadyEstablished) {
		t.Errorf("duplicate establish: %+v", res)
	}
}

// TestConcurrentSetupsRace: two SETUPs race for the last capacity; the
// one processed first wins, the other is cleanly rejected, and no
// budget leaks either way.
func TestConcurrentSetupsRace(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 2, 1e6)
	sig := New(sim, path)
	var r1, r2 Result
	sig.Establish(Request{Spec: spec(1, 0.7e6), Class: 1}, func(r Result) { r1 = r })
	sig.Establish(Request{Spec: spec(2, 0.7e6), Class: 1}, func(r Result) { r2 = r })
	sim.RunAll()
	if r1.Accepted == r2.Accepted {
		t.Fatalf("exactly one should win: %+v %+v", r1, r2)
	}
	// The loser's partial reservations are gone: 0.3e6 more fits.
	var r3 Result
	sig.Establish(Request{Spec: spec(3, 0.3e6), Class: 1}, func(r Result) { r3 = r })
	sim.RunAll()
	if !r3.Accepted {
		t.Errorf("leaked budget blocks the follow-up: %v", r3.Err)
	}
}

// TestRetryConvergesWithoutHandRolledLoop replays the examples/signaling
// scenario — a background reservation holds most of a five-hop DS3
// path, two 10 Mb/s setups race for the remaining 15 Mb/s — with Retry
// configured. The losing setup is rejected, backs off, and keeps
// retrying on its own; once the background session tears down, the
// retry converges with no caller-side loop.
func TestRetryConvergesWithoutHandRolledLoop(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 5, 45e6)
	sig := New(sim, path)
	sig.Retry = &Retry{Max: 10, Base: 10e-3, Cap: 80e-3}

	var bg Result
	sig.Establish(Request{Spec: spec(1, 30e6), Class: 1}, func(r Result) { bg = r })
	sim.RunAll()
	if !bg.Accepted {
		t.Fatalf("background reservation rejected: %v", bg.Err)
	}

	var r2, r3 Result
	sig.Establish(Request{Spec: spec(2, 10e6), Class: 1}, func(r Result) { r2 = r })
	sig.Establish(Request{Spec: spec(3, 10e6), Class: 1}, func(r Result) { r3 = r })
	// Free the path while the loser is still backing off.
	sim.After(0.1, func() {
		if err := sig.Teardown(1, nil); err != nil {
			t.Errorf("teardown: %v", err)
		}
	})
	sim.RunAll()

	if !r2.Accepted || !r3.Accepted {
		t.Fatalf("retry did not converge: r2=%+v r3=%+v", r2, r3)
	}
	if r2.Attempts == 1 && r3.Attempts == 1 {
		t.Error("neither racer retried; the race never happened")
	}
	if r2.Attempts > 1 && r3.Attempts > 1 {
		t.Error("both racers retried; exactly one should have won the first round")
	}
	// The whole path is exactly full: 30 Mb/s has been released, 2x10
	// reserved, so 25 more fits and 26 does not.
	var probe Result
	sig.Establish(Request{Spec: spec(9, 26e6), Class: 1}, func(r Result) { probe = r })
	sim.RunAll()
	if probe.Accepted {
		t.Error("over-reservation accepted: capacity accounting broke during retries")
	}
}

// TestRetryGivesUpAfterMax: against a permanently full path the retry
// schedule is finite — Max+1 attempts, deterministic backoff, then the
// admission error surfaces unchanged.
func TestRetryGivesUpAfterMax(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 2, 1e6)
	if _, err := path[1].Admit.Admit(spec(99, 1e6), 1, admission.Options{}); err != nil {
		t.Fatal(err)
	}
	sig := New(sim, path)
	sig.Retry = &Retry{Max: 3, Base: 5e-3, Cap: 8e-3}
	var res Result
	sig.Establish(Request{Spec: spec(1, 1e5), Class: 1}, func(r Result) { res = r })
	sim.RunAll()
	if res.Accepted {
		t.Fatal("accepted through a full node")
	}
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want 1 + Max = 4", res.Attempts)
	}
	if !errors.Is(res.Err, admission.ErrRejected) {
		t.Errorf("final error %v does not surface the admission rejection", res.Err)
	}
	if sig.Established(1) {
		t.Error("given-up session recorded as established")
	}
}

// TestBackoffSchedule: the backoff is min(Base*2^k, Cap), clamped so
// huge attempt numbers cannot overflow the shift.
func TestBackoffSchedule(t *testing.T) {
	r := Retry{Base: 1e-3, Cap: 10e-3}
	for k, want := range []float64{1e-3, 2e-3, 4e-3, 8e-3, 10e-3, 10e-3} {
		if got := r.backoff(k); got != want {
			t.Errorf("backoff(%d) = %v, want %v", k, got, want)
		}
	}
	uncapped := Retry{Base: 1e-3}
	if got := r.backoff(500); got != 10e-3 {
		t.Errorf("backoff(500) = %v, want the cap", got)
	}
	if got := uncapped.backoff(500); math.IsInf(got, 0) || got <= 0 {
		t.Errorf("uncapped backoff(500) = %v, want a finite positive clamp", got)
	}
}

// TestTeardownCancelsInflightSetup: releasing a session whose SETUP is
// still walking the path must cancel the establishment — the caller
// gets ErrCanceled, and every reservation the walk made is released
// exactly once.
func TestTeardownCancelsInflightSetup(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 3, 1e6)
	sig := New(sim, path)
	var res Result
	sig.Establish(Request{Spec: spec(1, 1e6), Class: 1}, func(r Result) { res = r })
	// Let the SETUP reserve the first node, then release mid-flight.
	torn := false
	sim.After(1e-3, func() {
		if err := sig.Teardown(1, func() { torn = true }); err != nil {
			t.Errorf("teardown of in-flight setup: %v", err)
		}
	})
	sim.RunAll()
	if res.Accepted || !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("canceled setup result: %+v", res)
	}
	if !torn {
		t.Error("teardown completion not signaled")
	}
	if sig.Established(1) {
		t.Error("canceled session recorded as established")
	}
	// No budget may leak: the full rate fits again at every node.
	for i := range path {
		if _, err := path[i].Admit.Admit(spec(100+i, 1e6), 1, admission.Options{}); err != nil {
			t.Errorf("node %d budget leaked: %v", i, err)
		}
	}
}

// TestSetupLostToLinkFault: a SETUP departing over a down link is lost;
// the source learns ErrSignalingLost, the loss is observed, and
// Teardown reclaims the stranded upstream reservation.
func TestSetupLostToLinkFault(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 3, 1e6)
	sig := New(sim, path)
	downPort := -1
	sig.LinkDown = func(node int) bool { return node == downPort }
	var lostKind string
	var lostNode int
	sig.OnLost = func(kind string, node, id int) { lostKind, lostNode = kind, node }

	downPort = 1 // the second hop's outgoing link is down throughout
	var res Result
	sig.Establish(Request{Spec: spec(1, 1e6), Class: 1}, func(r Result) { res = r })
	sim.RunAll()
	if res.Accepted || !errors.Is(res.Err, ErrSignalingLost) {
		t.Fatalf("setup over a down link: %+v", res)
	}
	if lostKind != "setup" || lostNode != 1 {
		t.Errorf("loss observed as (%q, %d), want (setup, 1)", lostKind, lostNode)
	}
	// Nodes 0 and 1 hold stranded reservations until torn down.
	if !sig.Established(1) {
		t.Fatal("stranded reservations not recorded")
	}
	downPort = -1
	if err := sig.Teardown(1, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	for i := 0; i < 2; i++ {
		if _, err := path[i].Admit.Admit(spec(100+i, 1e6), 1, admission.Options{}); err != nil {
			t.Errorf("node %d stranded budget not reclaimed: %v", i, err)
		}
	}
}

// TestReleaseLostThenRetried: a RELEASE lost mid-walk leaves the
// unreached suffix established; a second Teardown finishes the job.
func TestReleaseLostThenRetried(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 3, 1e6)
	sig := New(sim, path)
	downPort := -1
	sig.LinkDown = func(node int) bool { return node == downPort }
	sig.Establish(Request{Spec: spec(1, 1e6), Class: 1}, func(Result) {})
	sim.RunAll()

	downPort = 0 // RELEASE dies leaving node 0
	if err := sig.Teardown(1, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if nodes := sig.established[1]; len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Fatalf("suffix after lost RELEASE = %v, want [1 2]", nodes)
	}
	downPort = -1
	if err := sig.Teardown(1, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if sig.Established(1) {
		t.Error("suffix survived the retried teardown")
	}
	for i := range path {
		if _, err := path[i].Admit.Admit(spec(100+i, 1e6), 1, admission.Options{}); err != nil {
			t.Errorf("node %d budget leaked across the two-stage teardown: %v", i, err)
		}
	}
}

// TestAdopt: out-of-band establishments registered via Adopt release
// through the normal RELEASE walk; bad indexes and duplicates fail.
func TestAdopt(t *testing.T) {
	sim := event.New()
	path := newPath(t, sim, 2, 1e6)
	sig := New(sim, path)
	if _, err := path[0].Admit.Admit(spec(1, 1e6), 1, admission.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := path[1].Admit.Admit(spec(1, 1e6), 1, admission.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := sig.Adopt(1, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := sig.Adopt(1, []int{0}); !errors.Is(err, ErrAlreadyEstablished) {
		t.Errorf("duplicate adopt: %v", err)
	}
	if err := sig.Adopt(2, []int{0, 7}); err == nil {
		t.Error("adopt with an out-of-path index succeeded")
	}
	if err := sig.Teardown(1, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	for i := range path {
		if _, err := path[i].Admit.Admit(spec(100+i, 1e6), 1, admission.Options{}); err != nil {
			t.Errorf("node %d adopted reservation not released: %v", i, err)
		}
	}
}

// TestProc2Admitter: a node's Admit field takes any admission.Controller
// directly; procedure 3's fixed d travels in the request's options.
func TestProc2Admitter(t *testing.T) {
	for _, tc := range []struct {
		proc int
		opts admission.Options
		want float64
	}{
		{proc: 2, want: 1.0}, // sigma_1
		{proc: 3, opts: admission.Options{D: 0.25}, want: 0.25},
	} {
		sim := event.New()
		ac, err := admission.New(tc.proc, 1e6, []admission.Class{{R: 1e6, Sigma: 1}})
		if err != nil {
			t.Fatal(err)
		}
		path := []*Node{{Name: "A", Admit: ac, Gamma: 1e-3}}
		sig := New(sim, path)
		var res Result
		sig.Establish(Request{Spec: spec(1, 1e5), Class: 1, Opts: tc.opts}, func(r Result) { res = r })
		sim.RunAll()
		if !res.Accepted {
			t.Fatalf("procedure %d rejected: %v", tc.proc, res.Err)
		}
		if res.Assignments[0].DMax != tc.want {
			t.Errorf("procedure %d: d = %v, want %v", tc.proc, res.Assignments[0].DMax, tc.want)
		}
	}
}
