package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"leaveintime/internal/config"
	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
)

// FuzzChaosSeed is the live chaos battery: a deterministic sequence of
// hostile-client and hostile-scenario probes, one subtest each, driven
// against real daemons over real HTTP. Each probe asserts the
// robustness contract the daemon claims — kills degrade to a killed
// state, stalls are cut off, malformed and duplicate requests are cheap
// rejections, clock skew is clamped, a wire purge returns every pooled
// packet, overload sheds with growing Retry-After hints, drain+restart
// reproduces byte-identical results, poisoned scenarios leave repro
// files, and the whole ordeal leaks no goroutines. Plain go test runs
// the corpus seeds; fuzzing draws more, and a failing seed lands in
// testdata/fuzz/FuzzChaosSeed.
func FuzzChaosSeed(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(2))
	f.Fuzz(func(t *testing.T, seed uint64) {
		g0 := runtime.NumGoroutine()
		h := startTestDaemon(t, Options{
			Workers:        2,
			QueueDepth:     4,
			HighWater:      3,
			LowWater:       1,
			Slice:          0.05,
			RequestTimeout: time.Second,
			Watchdog:       event.Watchdog{MaxEvents: 200e6, MaxWall: 120 * time.Second},
			CheckpointDir:  t.TempDir(),
			RetryAfterBase: time.Second,
			RetryAfterCap:  8 * time.Second,
		})
		t.Run("malformed-requests", h.probeMalformed)
		t.Run("clock-skewed-deadlines", h.probeClockSkew)
		t.Run("stalled-client", h.probeStalledClient)
		t.Run("duplicate-requests", func(t *testing.T) { h.probeDuplicates(t, seed) })
		t.Run("fidelity-vs-library", func(t *testing.T) { h.probeFidelity(t, seed) })
		t.Run("kill-mid-run", func(t *testing.T) { h.probeKill(t, seed) })
		t.Run("wire-purge", func(t *testing.T) { h.probePurge(t, seed) })
		t.Run("overload-sheds", func(t *testing.T) { h.probeOverload(t, seed) })
		t.Run("main-drain", func(t *testing.T) {
			if err := h.drain(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run("drain-restart-fidelity", func(t *testing.T) { probeDrainRestart(t, seed) })
		t.Run("watchdog-repro", func(t *testing.T) { probeWatchdog(t, seed) })
		// Every daemon above is drained by now; the runtime gets a
		// settle window to return to the starting goroutine count, plus
		// the one this subtest runs on.
		t.Run("goroutine-leak", func(t *testing.T) {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
				runtime.GC()
				n := runtime.NumGoroutine() - 1
				if n <= g0 {
					return
				}
				if !time.Now().Before(deadline) {
					t.Fatalf("goroutines: started with %d, left with %d", g0, n)
				}
			}
		})
	})
}

// TestChaosScenarioParses pins the battery's generated scenario to the
// declarative schema so chaos failures are never parse bugs.
func TestChaosScenarioParses(t *testing.T) {
	libraryResult(t, chaosScenario(1, 0.1))
}

// chaosScenario builds a two-server scenario document; duration is
// simulated seconds, seed keeps the run deterministic.
func chaosScenario(seed uint64, duration float64) []byte {
	return []byte(fmt.Sprintf(`{
  "lmax": 424,
  "servers": [
    {"name": "n1", "capacity": 1536000, "gamma": 0.001},
    {"name": "n2", "capacity": 1536000, "gamma": 0.001}
  ],
  "sessions": [
    {"name": "voice", "rate": 32000, "route": ["n1", "n2"],
     "jitter_control": true, "b0": 424,
     "source": {"kind": "onoff", "t": 0.01325, "length": 424,
                "mean_on": 0.352, "mean_off": 0.65}},
    {"name": "cross", "rate": 1472000, "route": ["n1"],
     "source": {"kind": "poisson", "mean": 0.00028804, "length": 424}}
  ],
  "duration": %g,
  "seed": %d
}`, duration, seed))
}

// libraryResult runs the same scenario document through the plain
// library path and returns its result JSON — the fidelity baseline.
func libraryResult(t *testing.T, doc []byte) []byte {
	t.Helper()
	sc, err := config.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameAsLibrary requires a finished job's result to be byte-identical
// to the library run of its document.
func sameAsLibrary(t *testing.T, st *JobStatus, doc []byte) {
	t.Helper()
	got, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if want := libraryResult(t, doc); !bytes.Equal(got, want) {
		t.Fatalf("job %s diverged from the library:\n got %s\nwant %s", st.ID, got, want)
	}
}

// malformedSystem is the one-class system the SETUP and Adopt bodies of
// malformedProbes are posted to.
const malformedSystem = `{"name":"malformed","capacity":1536000,"lmax":424}`

// malformedProbes are request bodies every endpoint must answer with a
// 400; FuzzServeBodies starts from them. The last four are a caller's
// bug in a SETUP, not a capacity refusal (409): a packet larger than
// the system's L_MAX, lmin above lmax, a class the system does not have.
var malformedProbes = []struct {
	path string
	body string
}{
	{"/v1/systems", `{garbage`},
	{"/v1/systems", `{"name":"x","capacity":1,"lmax":1,"bogus_field":1}`},
	{"/v1/systems", `{"name":"","capacity":-1,"lmax":0}`},
	{"/v1/scenarios", `{"not":"a scenario"}`},
	{"/v1/systems/malformed/setup", `{"id":1,"rate":32000,"lmax":4240}`},
	{"/v1/systems/malformed/adopt", `{"id":1,"rate":32000,"lmax":4240}`},
	{"/v1/systems/malformed/setup", `{"id":1,"rate":32000,"lmax":424,"lmin":425}`},
	{"/v1/systems/malformed/setup", `{"id":1,"rate":32000,"lmax":424,"class":2}`},
}

func (h *chaosHarness) probeMalformed(t *testing.T) {
	h.do(t, http.MethodPost, "/v1/systems", []byte(malformedSystem), http.StatusCreated, nil)
	for _, c := range malformedProbes {
		h.do(t, http.MethodPost, c.path, []byte(c.body), http.StatusBadRequest, nil)
	}
	// A malformed deadline header is rejected before the handler runs.
	h.do(t, http.MethodPost, "/v1/systems", []byte(`{"name":"y","capacity":1,"lmax":1}`),
		http.StatusBadRequest, nil, "X-Request-Deadline", "not-a-number")
}

// probeClockSkew: a client whose clock is far behind (deadline in the
// past) or far ahead (deadline next year) still gets service, because
// the daemon clamps instead of trusting the remote clock.
func (h *chaosHarness) probeClockSkew(t *testing.T) {
	for _, skew := range []float64{-3600, +3600} {
		deadline := float64(time.Now().UnixNano())/1e9 + skew
		h.do(t, http.MethodGet, "/v1/healthz", nil, http.StatusOK, nil,
			"X-Request-Deadline", strconv.FormatFloat(deadline, 'f', 3, 64))
	}
}

// probeStalledClient opens a raw connection, sends half a request, and
// stops. The daemon's read timeouts must cut it off rather than hold
// the connection (and its goroutine) forever.
func (h *chaosHarness) probeStalledClient(t *testing.T) {
	conn, err := net.Dial("tcp", h.d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/scenarios HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}
	// ReadHeaderTimeout is 1s on this daemon; the server must close
	// the connection well within 5s.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err == nil {
		// Either an error response or EOF is acceptable; a second read
		// must then fail.
		if _, err2 := conn.Read(buf); err2 == nil {
			t.Fatal("server kept a stalled connection alive")
		}
	}
	// The daemon must still be healthy afterwards.
	h.do(t, http.MethodGet, "/v1/healthz", nil, http.StatusOK, nil)
}

func (h *chaosHarness) probeDuplicates(t *testing.T, seed uint64) {
	sysDoc := []byte(`{"name":"dup-sys","capacity":1536000,"lmax":424}`)
	h.do(t, http.MethodPost, "/v1/systems", sysDoc, http.StatusCreated, nil)
	h.do(t, http.MethodPost, "/v1/systems", sysDoc, http.StatusConflict, nil)
	setup := []byte(`{"id":1,"rate":32000,"lmax":424}`)
	h.do(t, http.MethodPost, "/v1/systems/dup-sys/setup", setup, http.StatusOK, nil)
	h.do(t, http.MethodPost, "/v1/systems/dup-sys/setup", setup, http.StatusConflict, nil)
	// Duplicate scenario submission under one idempotency key returns
	// the original job instead of running the scenario twice.
	doc := chaosScenario(seed, 0.2)
	id1 := h.submit(t, doc, http.StatusAccepted, "X-Idempotency-Key", "chaos-dup")
	if id2 := h.submit(t, doc, http.StatusOK, "X-Idempotency-Key", "chaos-dup"); id2 != id1 {
		t.Fatalf("idempotent submit: job %q, then %q", id1, id2)
	}
	h.waitState(t, id1, "done", 20*time.Second)
}

// probeFidelity asserts a fault-free daemon run is byte-identical to
// the library path and publishes telemetry along the way.
func (h *chaosHarness) probeFidelity(t *testing.T, seed uint64) {
	doc := chaosScenario(seed+1, 1.0)
	id := h.submit(t, doc, http.StatusAccepted)
	sameAsLibrary(t, h.waitState(t, id, "done", 30*time.Second), doc)
	h.do(t, http.MethodGet, "/v1/scenarios/"+id+"/telemetry", nil, http.StatusOK, nil)
}

func (h *chaosHarness) probeKill(t *testing.T, seed uint64) {
	id := h.submit(t, chaosScenario(seed+2, 5000), http.StatusAccepted)
	h.waitState(t, id, "running", 10*time.Second)
	h.do(t, http.MethodDelete, "/v1/scenarios/"+id, nil, http.StatusOK, nil)
	h.waitState(t, id, "killed", 10*time.Second)
}

// probePurge purges every session of a scenario over the wire API: the
// purge must show in the job's event stream, and the packet pool must
// drain — each taken packet either delivered or evicted back to the
// pool by the purge, nothing leaked in the discipline or in flight.
func (h *chaosHarness) probePurge(t *testing.T, seed uint64) {
	id := h.submit(t, chaosScenario(seed+3, 200), http.StatusAccepted)
	// Purges queue against pending and running jobs alike and apply at
	// the next slice boundary, so there is no need to catch the run
	// mid-flight (a short run could finish before a poll sees it).
	for _, session := range []int{1, 2} {
		h.do(t, http.MethodPost, "/v1/scenarios/"+id+"/purge",
			[]byte(fmt.Sprintf(`{"session":%d}`, session)), http.StatusAccepted, nil)
	}
	h.waitState(t, id, "done", 30*time.Second)
	var trace struct {
		Events []TraceEvent `json:"events"`
	}
	h.do(t, http.MethodGet, "/v1/scenarios/"+id+"/trace", nil, http.StatusOK, &trace)
	purged := false
	for _, e := range trace.Events {
		purged = purged || e.Kind == "purge"
	}
	if !purged {
		t.Errorf("no purge event in trace (%d events)", len(trace.Events))
	}
	var snap metrics.Snapshot
	h.do(t, http.MethodGet, "/v1/scenarios/"+id+"/telemetry", nil, http.StatusOK, &snap)
	if p := snap.Pool; p.Taken == 0 || p.Live != 0 || p.Taken != p.Released {
		t.Fatalf("pool after purging every session: taken %d, released %d, live %d", p.Taken, p.Released, p.Live)
	}
}

// probeOverload floods the bounded queue and asserts 429s with a
// growing Retry-After hint, then verifies the daemon recovers once the
// backlog drains.
func (h *chaosHarness) probeOverload(t *testing.T, seed uint64) {
	var backlog []string
	var hints []int
	for i := 0; i < 12 && len(hints) < 2; i++ {
		var out struct {
			ID string `json:"id"`
		}
		resp := h.do(t, http.MethodPost, "/v1/scenarios", chaosScenario(seed+10+uint64(i), 5000), 0, &out)
		switch resp.StatusCode {
		case http.StatusAccepted:
			backlog = append(backlog, out.ID)
		case http.StatusTooManyRequests:
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil {
				t.Fatalf("shed without parseable Retry-After: %q", resp.Header.Get("Retry-After"))
			}
			hints = append(hints, ra)
		default:
			t.Fatalf("submit #%d: unexpected %d", i, resp.StatusCode)
		}
	}
	if len(hints) < 2 {
		t.Fatalf("queue never shed (accepted %d)", len(backlog))
	}
	if hints[1] < hints[0] {
		t.Fatalf("Retry-After hint did not grow: %v", hints)
	}
	// Kill the backlog and wait for recovery.
	for _, id := range backlog {
		h.do(t, http.MethodDelete, "/v1/scenarios/"+id, nil, 0, nil)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var st StatsSnapshot
		h.do(t, http.MethodGet, "/v1/stats", nil, http.StatusOK, &st)
		if st.QueueLen == 0 && st.Accepting {
			if st.Serve.Shed < 2 {
				t.Fatalf("shed counter %d < 2", st.Serve.Shed)
			}
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("daemon did not recover: queue %d, accepting %v", st.QueueLen, st.Accepting)
		}
	}
}

// probeDrainRestart drains a daemon mid-run and verifies a successor
// restores the checkpoint and reproduces the library result exactly.
func probeDrainRestart(t *testing.T, seed uint64) {
	dir := t.TempDir()
	opts := Options{Workers: 1, QueueDepth: 8, Slice: 0.02, CheckpointDir: dir}
	h := startTestDaemon(t, opts)
	// Job A is heavy enough (hundreds of simulated seconds) to still be
	// mid-run when the drain lands; job B waits behind the single worker.
	docA, docB := chaosScenario(seed+20, 500), chaosScenario(seed+21, 0.5)
	idA := h.submit(t, docA, http.StatusAccepted)
	idB := h.submit(t, docB, http.StatusAccepted)
	h.waitState(t, idA, "running", 10*time.Second)
	if err := h.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkpoint := filepath.Join(dir, "checkpoint.json")
	if _, err := os.Stat(checkpoint); err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}

	opts.Workers = 2
	h2 := startTestDaemon(t, opts)
	if _, err := os.Stat(checkpoint); !os.IsNotExist(err) {
		t.Fatal("checkpoint not consumed on restore")
	}
	for id, doc := range map[string][]byte{idA: docA, idB: docB} {
		sameAsLibrary(t, h2.waitState(t, id, "done", 60*time.Second), doc)
	}
	if n := h2.d.reg.ServeCounters().Restores; n != 2 {
		t.Fatalf("restores = %d, want 2", n)
	}
}

// probeWatchdog submits a scenario to a daemon whose event budget is
// far too small and asserts the run degrades to a failed state with a
// replayable repro file instead of wedging the worker.
func probeWatchdog(t *testing.T, seed uint64) {
	h := startTestDaemon(t, Options{
		Workers:       1,
		QueueDepth:    4,
		Slice:         0.05,
		Watchdog:      event.Watchdog{MaxEvents: 500},
		CheckpointDir: t.TempDir(),
	})
	id := h.submit(t, chaosScenario(seed+30, 10), http.StatusAccepted)
	st := h.waitState(t, id, "failed", 30*time.Second)
	if st.Error == "" || st.Repro == "" {
		t.Fatalf("failed job missing error/repro: %+v", st)
	}
	data, err := os.ReadFile(st.Repro)
	if err != nil {
		t.Fatalf("repro file: %v", err)
	}
	var repro struct {
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := json.Unmarshal(data, &repro); err != nil {
		t.Fatal(err)
	}
	// The repro must be replayable through the library verbatim.
	libraryResult(t, repro.Scenario)
	if h.d.reg.ServeCounters().WatchdogTrips == 0 {
		t.Fatal("watchdog trip not counted")
	}
}
