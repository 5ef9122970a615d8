package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
)

// startTestDaemon runs a daemon for the test's lifetime and drains it
// on cleanup.
func startTestDaemon(t *testing.T, opts Options) *chaosHarness {
	t.Helper()
	h, err := startHarness(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := h.d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		h.client.CloseIdleConnections()
	})
	return h
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.Workers <= 0 || o.QueueDepth <= 0 || o.RequestTimeout <= 0 || o.Slice <= 0 {
		t.Fatalf("zero options not defaulted: %+v", o)
	}
	if o.HighWater <= o.LowWater || o.HighWater > o.QueueDepth {
		t.Fatalf("watermarks incoherent: high %d, low %d, depth %d", o.HighWater, o.LowWater, o.QueueDepth)
	}
	if o.Watchdog.MaxEvents == 0 || o.Watchdog.MaxWall == 0 {
		t.Fatalf("watchdog not defaulted: %+v", o.Watchdog)
	}
	// A degenerate depth still yields a usable band.
	o = Options{QueueDepth: 1, HighWater: 1}
	o.defaults()
	if o.LowWater >= o.HighWater {
		t.Fatalf("depth-1 watermarks: high %d, low %d", o.HighWater, o.LowWater)
	}
}

// TestSystemWireLifecycle drives one hosted system through its whole
// wire life: create, duplicate create, SETUP, duplicate SETUP, a
// rejected SETUP, RELEASE (which must return the curve gate's share),
// re-RELEASE, and Adopt.
func TestSystemWireLifecycle(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})

	post := func(path, body string, want int) *http.Response {
		t.Helper()
		resp, err := h.post(path, []byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s: got %d, want %d", path, resp.StatusCode, want)
		}
		return resp
	}

	post("/v1/systems", `{"name":"s1","capacity":1536000,"lmax":424,"budget_s":0.5}`, http.StatusCreated).Body.Close()
	post("/v1/systems", `{"name":"s1","capacity":1536000,"lmax":424}`, http.StatusConflict).Body.Close()

	resp := post("/v1/systems/s1/setup", `{"id":1,"rate":32000,"lmax":424}`, http.StatusOK)
	var sr SetupResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sr.Accepted || sr.DMax <= 0 || sr.DelayBound <= 0 {
		t.Fatalf("setup response: %+v", sr)
	}
	post("/v1/systems/s1/setup", `{"id":1,"rate":32000,"lmax":424}`, http.StatusConflict).Body.Close()

	// A session asking for more than the whole server is rejected by the
	// fast path without committing anything.
	resp = post("/v1/systems/s1/setup", `{"id":2,"rate":99999999,"lmax":424}`, http.StatusConflict)
	var rej SetupResponse
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rej.Accepted {
		t.Fatal("oversized setup accepted")
	}

	post("/v1/systems/s1/release", `{"id":1}`, http.StatusOK).Body.Close()
	post("/v1/systems/s1/release", `{"id":1}`, http.StatusNotFound).Body.Close()

	// After the release the gate must be back to empty: an adopt of the
	// same share succeeds and the next setup of a fresh id succeeds.
	post("/v1/systems/s1/adopt", `{"id":7,"rate":32000,"lmax":424}`, http.StatusOK).Body.Close()
	post("/v1/systems/s1/setup", `{"id":8,"rate":32000,"lmax":424}`, http.StatusOK).Body.Close()
	post("/v1/systems/nope/setup", `{"id":9,"rate":1,"lmax":1}`, http.StatusNotFound).Body.Close()

	c := h.d.Registry().ServeCounters()
	if c.Setups != 2 || c.SetupRejects != 1 || c.Releases != 1 || c.Adopts != 1 || c.Duplicates != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestSetupDeclarationChecked: a SETUP or Adopt whose declaration is
// wrong whatever else is established is the caller's bug (400, counted
// malformed), and only a rule refusal is a 409 counted as a reject. The
// system's L_MAX is part of that check: eq. 9/12 and the curve gate take
// it network-wide, so a session may not declare a larger packet.
func TestSetupDeclarationChecked(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	resp, err := h.post("/v1/systems", []byte(malformedSystem), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cases := []struct {
		verb, body string
		want       int
	}{
		{"setup", `{"id":1,"rate":32000,"lmax":4240}`, http.StatusBadRequest},
		{"adopt", `{"id":1,"rate":32000,"lmax":4240}`, http.StatusBadRequest},
		{"setup", `{"id":1,"rate":32000,"lmax":424.5}`, http.StatusBadRequest},
		{"setup", `{"id":1,"rate":32000,"lmax":424,"lmin":425}`, http.StatusBadRequest},
		{"adopt", `{"id":1,"rate":32000,"lmax":424,"lmin":-1}`, http.StatusBadRequest},
		{"setup", `{"id":1,"rate":32000,"lmax":424,"class":2}`, http.StatusBadRequest},
		{"adopt", `{"id":1,"rate":32000,"lmax":424,"class":-1}`, http.StatusBadRequest},
		{"setup", `{"id":1,"rate":32000,"lmax":424,"eps":-1}`, http.StatusBadRequest},
		{"setup", `{"id":0,"rate":32000,"lmax":424}`, http.StatusBadRequest},
		// More than the whole link is well formed and refused by rule 1.1.
		{"setup", `{"id":1,"rate":1536001,"lmax":424}`, http.StatusConflict},
		{"setup", `{"id":1,"rate":32000,"lmax":424,"lmin":100,"class":1}`, http.StatusOK},
		{"adopt", `{"id":2,"rate":32000,"lmax":100}`, http.StatusOK},
	}
	var malformed, rejects int64
	for _, tc := range cases {
		resp, err := h.post("/v1/systems/malformed/"+tc.verb, []byte(tc.body), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %d, want %d", tc.verb, tc.body, resp.StatusCode, tc.want)
		}
		switch tc.want {
		case http.StatusBadRequest:
			malformed++
		case http.StatusConflict:
			rejects++
		}
	}
	c := h.d.Registry().ServeCounters()
	if c.Malformed != malformed || c.SetupRejects != rejects || c.Setups != 1 || c.Adopts != 1 {
		t.Errorf("counters %+v, want %d malformed, %d setup rejects, 1 setup, 1 adopt", c, malformed, rejects)
	}
}

// TestCreateSystemProcedure pins what POST /v1/systems does with proc
// when no classes are named: an unknown procedure is refused, 0 and 1
// get procedure 1 over the full link (d = L/r), and an explicit 2 stays
// procedure 2 over that one class (d = sigma_1 = 1 s).
func TestCreateSystemProcedure(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	for _, tc := range []struct {
		proc, want int
		dMax       float64
	}{
		{proc: 7, want: http.StatusBadRequest},
		{proc: -1, want: http.StatusBadRequest},
		{proc: 0, want: http.StatusCreated, dMax: 424.0 / 32000},
		{proc: 1, want: http.StatusCreated, dMax: 424.0 / 32000},
		{proc: 2, want: http.StatusCreated, dMax: 1},
	} {
		name := fmt.Sprintf("p%d", tc.proc)
		body := fmt.Sprintf(`{"name":%q,"capacity":1536000,"lmax":424,"proc":%d}`, name, tc.proc)
		resp, err := h.post("/v1/systems", []byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("proc %d: create answered %d, want %d", tc.proc, resp.StatusCode, tc.want)
		}
		if tc.want != http.StatusCreated {
			continue
		}
		resp, err = h.post("/v1/systems/"+name+"/setup", []byte(`{"id":1,"rate":32000,"lmax":424}`), nil)
		if err != nil {
			t.Fatal(err)
		}
		var sr SetupResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || !sr.Accepted || sr.DMax != tc.dMax {
			t.Fatalf("proc %d: setup %+v (err %v), want d_max %g", tc.proc, sr, err, tc.dMax)
		}
	}
}

// TestWatchdogWallClockConcurrentSystems runs two scenario jobs
// concurrently under a tight wall-clock watchdog: the heavy run must
// trip and degrade to a failed job with a wall-clock reason, while the
// light sibling completes untouched.
func TestWatchdogWallClockConcurrentSystems(t *testing.T) {
	h := startTestDaemon(t, Options{
		Workers: 2,
		Slice:   0.5,
		Watchdog: event.Watchdog{
			MaxEvents: 1 << 40,
			MaxWall:   50 * time.Millisecond,
		},
		CheckpointDir: t.TempDir(),
	})
	heavyID, code, err := h.submit(chaosScenario(1, 1e6), nil)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit heavy: %d, %v", code, err)
	}
	lightID, code, err := h.submit(chaosScenario(2, 0.3), nil)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit light: %d, %v", code, err)
	}
	light, err := h.waitState(lightID, "done", 30*time.Second)
	if err != nil {
		t.Fatalf("light job: %v (%+v)", err, light)
	}
	heavy, err := h.waitState(heavyID, "failed", 60*time.Second)
	if err != nil {
		t.Fatalf("heavy job: %v (%+v)", err, heavy)
	}
	if !strings.Contains(heavy.Error, "wall-clock") {
		t.Fatalf("heavy job error %q does not name the wall-clock budget", heavy.Error)
	}
	if heavy.Repro == "" {
		t.Fatal("tripped job has no repro")
	}
	if c := h.d.Registry().ServeCounters(); c.WatchdogTrips != 1 || c.ScenarioDone != 1 || c.ScenarioFailed != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestPoolDrainAfterWirePurge purges every session of a running
// scenario over the wire API and asserts the packet pool fully drains:
// each taken packet is either delivered or evicted back to the pool by
// the purge — nothing leaks in the discipline or in flight.
func TestPoolDrainAfterWirePurge(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1, Slice: 0.05})
	id, code, err := h.submit(chaosScenario(3, 200), nil)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", code, err)
	}
	// Purge requests are accepted while the job is pending or running
	// and applied at the next slice boundary — no need to catch the run
	// mid-flight.
	for _, session := range []int{1, 2} {
		resp, err := h.post("/v1/scenarios/"+id+"/purge",
			[]byte(fmt.Sprintf(`{"session":%d}`, session)), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("purge session %d: %d", session, resp.StatusCode)
		}
	}
	if _, err := h.waitState(id, "done", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := h.client.Get(h.base + "/v1/scenarios/" + id + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pool.Taken == 0 {
		t.Fatal("no packets taken before the purge")
	}
	if snap.Pool.Live != 0 || snap.Pool.Taken != snap.Pool.Released {
		t.Fatalf("pool not drained after purging every session: taken %d, released %d, live %d",
			snap.Pool.Taken, snap.Pool.Released, snap.Pool.Live)
	}
}

// TestSubmitBadScenario asserts the declarative validation runs before
// anything is queued — including what only building the document used
// to find (a negative gamma parsed, was answered 202, and panicked in
// the worker).
func TestSubmitBadScenario(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	for name, doc := range map[string]string{
		"no servers":     `{"duration":1,"seed":1,"servers":[],"sessions":[]}`,
		"negative gamma": `{"lmax":424,"duration":1,"seed":1,"servers":[{"name":"a","capacity":1536000,"gamma":-0.5}],"sessions":[]}`,
	} {
		_, code, err := h.submit([]byte(doc), nil)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400", name, code)
		}
	}
	if c := h.d.Registry().ServeCounters(); c.Malformed != 2 || c.ScenarioQueued != 0 {
		t.Fatalf("counters: %+v", c)
	}
}
