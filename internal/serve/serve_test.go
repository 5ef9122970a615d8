package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"leaveintime/internal/event"
)

// chaosHarness is one live daemon plus the HTTP client the tests drive
// it with.
type chaosHarness struct {
	d      *Daemon
	client *http.Client
	base   string
}

// startTestDaemon runs a daemon for the test's lifetime and drains it
// on cleanup.
func startTestDaemon(t *testing.T, opts Options) *chaosHarness {
	t.Helper()
	d := New(opts)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	h := &chaosHarness{d: d, client: &http.Client{Timeout: 10 * time.Second}, base: "http://" + d.Addr()}
	t.Cleanup(func() {
		if err := h.drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return h
}

// drain drains the daemon (a second drain is a no-op) and closes the
// client's idle connections.
func (h *chaosHarness) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer h.client.CloseIdleConnections()
	return h.d.Drain(ctx)
}

// do sends one request with the header pairs hdr, fails the test unless
// the answer has status want (any status when want is 0), decodes the
// JSON answer into out when out is not nil, and returns the response
// with its body closed.
func (h *chaosHarness) do(t *testing.T, method, path string, body []byte, want int, out any, hdr ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := h.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if want != 0 && resp.StatusCode != want {
		t.Fatalf("%s %s %s: got %d, want %d", method, path, body, resp.StatusCode, want)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return resp
}

// submit posts a scenario document, requires status want, and returns
// the id of the job the daemon answered with.
func (h *chaosHarness) submit(t *testing.T, doc []byte, want int, hdr ...string) string {
	t.Helper()
	var out struct {
		ID string `json:"id"`
	}
	h.do(t, http.MethodPost, "/v1/scenarios", doc, want, &out, hdr...)
	return out.ID
}

// waitState polls a job until it reaches want, and fails the test if it
// reaches another terminal state or the wall deadline first.
func (h *chaosHarness) waitState(t *testing.T, id, want string, timeout time.Duration) *JobStatus {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; time.Sleep(2 * time.Millisecond) {
		var st JobStatus
		h.do(t, http.MethodGet, "/v1/scenarios/"+id, nil, 0, &st)
		if st.State == want {
			return &st
		}
		terminal := st.State == "done" || st.State == "failed" || st.State == "killed"
		if terminal || !time.Now().Before(deadline) {
			t.Fatalf("job %s: state %q, want %q (%+v)", id, st.State, want, st)
		}
	}
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
	// A slice that would leave no control poll before the run ends is
	// unset, not obeyed.
	for _, slice := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		o = Options{Slice: slice}
		if o.defaults(); o.Slice != 0.25 {
			t.Errorf("Slice %v defaulted to %v, want 0.25", slice, o.Slice)
		}
	}
	// A degenerate depth still yields a usable band.
	o = Options{QueueDepth: 1, HighWater: 1}
	o.defaults()
	if o.LowWater >= o.HighWater {
		t.Fatalf("depth-1 watermarks: high %d, low %d", o.HighWater, o.LowWater)
	}
}

// TestRequestDeadlineClamp: wrap clamps a client's X-Request-Deadline
// into [now+50 ms, now+RequestTimeout] before it becomes a Duration, so
// a deadline too far ahead to fit one is capped rather than read as
// already expired, and NaN is malformed.
func TestRequestDeadlineClamp(t *testing.T) {
	const rt = 2 * time.Second
	d := New(Options{RequestTimeout: rt})
	unix := func(at time.Time) string {
		return strconv.FormatFloat(float64(at.UnixNano())/1e9, 'f', -1, 64)
	}
	now := time.Now()
	cases := []struct {
		name, header string
		want         time.Duration // the handler's deadline, from the request
		code         int
	}{
		{"now+1s", unix(now.Add(time.Second)), time.Second, http.StatusOK},
		{"now-1h", unix(now.Add(-time.Hour)), 50 * time.Millisecond, http.StatusOK},
		{"unix milliseconds", "1.76e12", rt, http.StatusOK},
		{"+Inf", "+Inf", rt, http.StatusOK},
		{"-Inf", "-Inf", 50 * time.Millisecond, http.StatusOK},
		{"NaN", "NaN", 0, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var deadline time.Time
			h := d.wrap(func(w http.ResponseWriter, r *http.Request) {
				deadline, _ = r.Context().Deadline()
			})
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.Header.Set("X-Request-Deadline", c.header)
			rec := httptest.NewRecorder()
			h(rec, req)
			after := time.Now()
			if rec.Code != c.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.code, rec.Body)
			}
			if c.code != http.StatusOK {
				if !deadline.IsZero() {
					t.Errorf("handler ran on a malformed deadline")
				}
				return
			}
			const slack = 10 * time.Millisecond
			if lo, hi := now.Add(c.want-slack), after.Add(c.want+slack); deadline.Before(lo) || deadline.After(hi) {
				t.Errorf("deadline %v after the request, want %v", deadline.Sub(now), c.want)
			}
		})
	}
}

// TestSystemWireLifecycle drives one hosted system through its whole
// wire life: create, duplicate create, SETUP, duplicate SETUP, a
// rejected SETUP, RELEASE (which must return the curve gate's share),
// re-RELEASE, and Adopt.
func TestSystemWireLifecycle(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	post := func(path, body string, want int, out any) {
		t.Helper()
		h.do(t, http.MethodPost, path, []byte(body), want, out)
	}

	post("/v1/systems", `{"name":"s1","capacity":1536000,"lmax":424,"budget_s":0.5}`, http.StatusCreated, nil)
	post("/v1/systems", `{"name":"s1","capacity":1536000,"lmax":424}`, http.StatusConflict, nil)

	var sr SetupResponse
	post("/v1/systems/s1/setup", `{"id":1,"rate":32000,"lmax":424}`, http.StatusOK, &sr)
	if !sr.Accepted || sr.DMax <= 0 || sr.DelayBound <= 0 {
		t.Fatalf("setup response: %+v", sr)
	}
	post("/v1/systems/s1/setup", `{"id":1,"rate":32000,"lmax":424}`, http.StatusConflict, nil)

	// A session asking for more than the whole server is rejected by the
	// fast path without committing anything.
	var rej SetupResponse
	post("/v1/systems/s1/setup", `{"id":2,"rate":99999999,"lmax":424}`, http.StatusConflict, &rej)
	if rej.Accepted {
		t.Fatal("oversized setup accepted")
	}

	post("/v1/systems/s1/release", `{"id":1}`, http.StatusOK, nil)
	post("/v1/systems/s1/release", `{"id":1}`, http.StatusNotFound, nil)

	// After the release the gate must be back to empty: an adopt of the
	// same share succeeds and the next setup of a fresh id succeeds.
	post("/v1/systems/s1/adopt", `{"id":7,"rate":32000,"lmax":424}`, http.StatusOK, nil)
	post("/v1/systems/s1/setup", `{"id":8,"rate":32000,"lmax":424}`, http.StatusOK, nil)
	post("/v1/systems/nope/setup", `{"id":9,"rate":1,"lmax":1}`, http.StatusNotFound, nil)

	c := h.d.reg.ServeCounters()
	if c.Setups != 2 || c.SetupRejects != 1 || c.Releases != 1 || c.Adopts != 1 || c.Duplicates != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestClientIDsFarApart: a system books its sessions at the controller
// under its own sequence, not the client's ids, so SETUPs of ids 1 and
// 1<<62 stand side by side (booked by those ids, the controller's id
// table would span 2^54 directory entries), release to an empty
// controller and count in /v1/stats. A refused declaration still names
// the client's id.
func TestClientIDsFarApart(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	h.do(t, http.MethodPost, "/v1/systems", []byte(`{"name":"s","capacity":1536000,"lmax":424}`), http.StatusCreated, nil)
	const far = "4611686018427387904" // 1<<62
	var bad errorBody
	h.do(t, http.MethodPost, "/v1/systems/s/setup", []byte(`{"id":`+far+`,"rate":32000,"lmax":424,"lmin":425}`), http.StatusBadRequest, &bad)
	if !strings.Contains(bad.Error, "session "+far) {
		t.Errorf("refusal %q does not name the client's id", bad.Error)
	}
	for _, verb := range []string{"setup", "adopt"} {
		for _, id := range []string{"1", far} {
			h.do(t, http.MethodPost, "/v1/systems/s/"+verb, []byte(`{"id":`+id+`,"rate":32000,"lmax":424}`), http.StatusOK, nil)
		}
		for _, id := range []string{far, "1"} {
			h.do(t, http.MethodPost, "/v1/systems/s/release", []byte(`{"id":`+id+`}`), http.StatusOK, nil)
		}
	}
	var st StatsSnapshot
	h.do(t, http.MethodGet, "/v1/stats", nil, http.StatusOK, &st)
	if c := st.Serve; c.Setups != 2 || c.Adopts != 2 || c.Releases != 4 || c.SetupRejects != 0 || c.Malformed != 1 {
		t.Errorf("stats: %+v", c)
	}
	h.d.mu.Lock()
	sys := h.d.systems["s"]
	h.d.mu.Unlock()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if r := sys.ctrl.TotalRate(); r != 0 || len(sys.sessions) != 0 {
		t.Errorf("released system holds %g b/s over %d sessions", r, len(sys.sessions))
	}
}

// TestAdoptDelayBound: an Adopt answers the curve gate's bound after its
// own commitment, bit for bit what a SETUP of the same sessions answers
// on a twin system — not the bound of the last SETUP, and not 0 on a
// system that has seen none.
func TestAdoptDelayBound(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	for _, name := range []string{"setup", "adopt"} {
		h.do(t, http.MethodPost, "/v1/systems",
			[]byte(`{"name":"`+name+`","capacity":1536000,"lmax":424}`), http.StatusCreated, nil)
	}
	for _, body := range []string{`{"id":1,"rate":32000,"lmax":424}`, `{"id":2,"rate":64000,"lmax":200}`} {
		var setup, adopt SetupResponse
		h.do(t, http.MethodPost, "/v1/systems/setup/setup", []byte(body), http.StatusOK, &setup)
		h.do(t, http.MethodPost, "/v1/systems/adopt/adopt", []byte(body), http.StatusOK, &adopt)
		if setup.DelayBound <= 0 || adopt != setup {
			t.Fatalf("%s: adopt answered %+v, setup %+v", body, adopt, setup)
		}
	}
}

// TestSetupDeclarationChecked: a SETUP or Adopt whose declaration is
// wrong whatever else is established is the caller's bug (400, counted
// malformed), and only a rule refusal is a 409 counted as a reject. The
// system's L_MAX is part of that check: eq. 9/12 and the curve gate take
// it network-wide, so a session may not declare a larger packet.
func TestSetupDeclarationChecked(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	h.do(t, http.MethodPost, "/v1/systems", []byte(malformedSystem), http.StatusCreated, nil)
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
		if code := h.do(t, http.MethodPost, "/v1/systems/malformed/"+tc.verb, []byte(tc.body), 0, nil).StatusCode; code != tc.want {
			t.Errorf("%s %s: got %d, want %d", tc.verb, tc.body, code, tc.want)
		}
		switch tc.want {
		case http.StatusBadRequest:
			malformed++
		case http.StatusConflict:
			rejects++
		}
	}
	c := h.d.reg.ServeCounters()
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
		h.do(t, http.MethodPost, "/v1/systems", []byte(body), tc.want, nil)
		if tc.want != http.StatusCreated {
			continue
		}
		var sr SetupResponse
		h.do(t, http.MethodPost, "/v1/systems/"+name+"/setup", []byte(`{"id":1,"rate":32000,"lmax":424}`), 0, &sr)
		if !sr.Accepted || sr.DMax != tc.dMax {
			t.Fatalf("proc %d: setup %+v, want d_max %g", tc.proc, sr, tc.dMax)
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
	heavyID := h.submit(t, chaosScenario(1, 1e6), http.StatusAccepted)
	lightID := h.submit(t, chaosScenario(2, 0.3), http.StatusAccepted)
	h.waitState(t, lightID, "done", 30*time.Second)
	heavy := h.waitState(t, heavyID, "failed", 60*time.Second)
	if !strings.Contains(heavy.Error, "wall-clock") {
		t.Fatalf("heavy job error %q does not name the wall-clock budget", heavy.Error)
	}
	if heavy.Repro == "" {
		t.Fatal("tripped job has no repro")
	}
	if c := h.d.reg.ServeCounters(); c.WatchdogTrips != 1 || c.ScenarioDone != 1 || c.ScenarioFailed != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestSubmitBadScenario asserts the declarative validation runs before
// anything is queued — including what only building the document used
// to find (a negative gamma parsed, was answered 202, and panicked in
// the worker).
func TestSubmitBadScenario(t *testing.T) {
	h := startTestDaemon(t, Options{Workers: 1})
	for _, doc := range []string{
		`{"duration":1,"seed":1,"servers":[],"sessions":[]}`,
		`{"lmax":424,"duration":1,"seed":1,"servers":[{"name":"a","capacity":1536000,"gamma":-0.5}],"sessions":[]}`,
	} {
		h.submit(t, []byte(doc), http.StatusBadRequest)
	}
	if c := h.d.reg.ServeCounters(); c.Malformed != 2 || c.ScenarioQueued != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestChurnReproRuns: a repro whose fault plan releases sessions and
// sets them up again is a document the daemon runs like any other, to
// the library's result.
func TestChurnReproRuns(t *testing.T) {
	doc, err := os.ReadFile("../simcheck/testdata/old_churn_seed2.json")
	if err != nil {
		t.Fatal(err)
	}
	h := startTestDaemon(t, Options{Workers: 1})
	id := h.submit(t, doc, http.StatusAccepted)
	sameAsLibrary(t, h.waitState(t, id, "done", 30*time.Second), doc)
}
