package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"leaveintime/internal/config"
	"leaveintime/internal/event"
)

// This file is the live chaos battery: a deterministic sequence of
// hostile-client and hostile-scenario probes driven against real
// daemons over real HTTP. Each probe asserts the robustness contract
// the daemon claims — kills degrade to a killed state, stalls are cut
// off, malformed and duplicate requests are cheap rejections, clock
// skew is clamped, overload sheds with growing Retry-After hints,
// drain+restart reproduces byte-identical results, poisoned scenarios
// leave repro files, and the whole ordeal leaks no goroutines.

// ProbeResult is one probe's verdict.
type ProbeResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ChaosReport is the battery's outcome.
type ChaosReport struct {
	Seed   uint64        `json:"seed"`
	Probes []ProbeResult `json:"probes"`
}

// AllOK reports whether every probe passed.
func (r *ChaosReport) AllOK() bool {
	for _, p := range r.Probes {
		if !p.OK {
			return false
		}
	}
	return true
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

// chaosHarness wires one daemon plus an HTTP client for the probes.
type chaosHarness struct {
	d      *Daemon
	client *http.Client
	base   string
}

func startHarness(opts Options) (*chaosHarness, error) {
	d := New(opts)
	if err := d.Start(); err != nil {
		return nil, err
	}
	return &chaosHarness{
		d:      d,
		client: &http.Client{Timeout: 10 * time.Second},
		base:   "http://" + d.Addr(),
	}, nil
}

func (h *chaosHarness) post(path string, body []byte, hdr map[string]string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return h.client.Do(req)
}

func (h *chaosHarness) submit(doc []byte, hdr map[string]string) (string, int, error) {
	resp, err := h.post("/v1/scenarios", doc, hdr)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return "", resp.StatusCode, err
		}
	}
	return out.ID, resp.StatusCode, nil
}

func (h *chaosHarness) status(id string) (*JobStatus, error) {
	resp, err := h.client.Get(h.base + "/v1/scenarios/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitState polls a job until it reaches want (or any terminal state,
// or the wall deadline).
func (h *chaosHarness) waitState(id, want string, timeout time.Duration) (*JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := h.status(id)
		if err != nil {
			return nil, err
		}
		if st.State == want {
			return st, nil
		}
		terminal := st.State == "done" || st.State == "failed" || st.State == "killed"
		if terminal || !time.Now().Before(deadline) {
			return st, fmt.Errorf("job %s: state %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// libraryResult runs the same scenario document through the plain
// library path and returns its result JSON — the fidelity baseline.
func libraryResult(doc []byte) ([]byte, error) {
	sc, err := config.Parse(doc)
	if err != nil {
		return nil, err
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// RunChaos executes the battery. Dir hosts checkpoints and repro
// files; every probe sequence is deterministic in seed.
func RunChaos(seed uint64, dir string) (*ChaosReport, error) {
	report := &ChaosReport{Seed: seed}
	add := func(name string, err error) {
		p := ProbeResult{Name: name, OK: err == nil}
		if err != nil {
			p.Detail = err.Error()
		}
		report.Probes = append(report.Probes, p)
	}

	g0 := runtime.NumGoroutine()

	h, err := startHarness(Options{
		Workers:        2,
		QueueDepth:     4,
		HighWater:      3,
		LowWater:       1,
		Slice:          0.05,
		RequestTimeout: time.Second,
		Watchdog:       event.Watchdog{MaxEvents: 200e6, MaxWall: 120 * time.Second},
		CheckpointDir:  filepath.Join(dir, "main"),
		RetryAfterBase: time.Second,
		RetryAfterCap:  8 * time.Second,
	})
	if err != nil {
		return nil, err
	}

	add("malformed-requests", h.probeMalformed())
	add("clock-skewed-deadlines", h.probeClockSkew())
	add("stalled-client", h.probeStalledClient())
	add("duplicate-requests", h.probeDuplicates(seed))
	add("fidelity-vs-library", h.probeFidelity(seed))
	add("kill-mid-run", h.probeKill(seed))
	add("wire-purge", h.probePurge(seed))
	add("overload-sheds", h.probeOverload(seed))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = h.d.Drain(ctx)
	cancel()
	h.client.CloseIdleConnections()
	add("main-drain", err)

	add("drain-restart-fidelity", probeDrainRestart(seed, filepath.Join(dir, "restart")))
	add("watchdog-repro", probeWatchdog(seed, filepath.Join(dir, "watchdog")))
	add("goroutine-leak", probeGoroutines(g0))

	return report, nil
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

func (h *chaosHarness) probeMalformed() error {
	resp, err := h.post("/v1/systems", []byte(malformedSystem), nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create system: got %d, want 201", resp.StatusCode)
	}
	for _, c := range malformedProbes {
		resp, err := h.post(c.path, []byte(c.body), nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("%s %q: got %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	// A malformed deadline header is rejected before the handler runs.
	resp, err = h.post("/v1/systems", []byte(`{"name":"y","capacity":1,"lmax":1}`),
		map[string]string{"X-Request-Deadline": "not-a-number"})
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("bad deadline header: got %d, want 400", resp.StatusCode)
	}
	return nil
}

func (h *chaosHarness) probeClockSkew() error {
	// A client whose clock is far behind (deadline in the past) or far
	// ahead (deadline next year) still gets service: the daemon clamps
	// instead of trusting the remote clock.
	for _, skew := range []float64{-3600, +3600} {
		deadline := float64(time.Now().UnixNano())/1e9 + skew
		req, err := http.NewRequest(http.MethodGet, h.base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		req.Header.Set("X-Request-Deadline", strconv.FormatFloat(deadline, 'f', 3, 64))
		resp, err := h.client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("skew %+.0fs: got %d, want 200", skew, resp.StatusCode)
		}
	}
	return nil
}

// probeStalledClient opens a raw connection, sends half a request, and
// stops. The daemon's read timeouts must cut it off rather than hold
// the connection (and its goroutine) forever.
func (h *chaosHarness) probeStalledClient() error {
	conn, err := net.Dial("tcp", h.d.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/scenarios HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		return err
	}
	// ReadHeaderTimeout is 1s in this harness; the server must close
	// the connection well within 5s.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err == nil {
		// Either an error response or EOF is acceptable; a second read
		// must then fail.
		if _, err2 := conn.Read(buf); err2 == nil {
			return fmt.Errorf("server kept a stalled connection alive")
		}
	}
	// The daemon must still be healthy afterwards.
	resp, err := h.client.Get(h.base + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz after stall: %d", resp.StatusCode)
	}
	return nil
}

func (h *chaosHarness) probeDuplicates(seed uint64) error {
	sysDoc := []byte(`{"name":"dup-sys","capacity":1536000,"lmax":424}`)
	if resp, err := h.post("/v1/systems", sysDoc, nil); err != nil {
		return err
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create: %d", resp.StatusCode)
		}
	}
	resp, err := h.post("/v1/systems", sysDoc, nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("duplicate system: got %d, want 409", resp.StatusCode)
	}
	setup := []byte(`{"id":1,"rate":32000,"lmax":424}`)
	for i, want := range []int{http.StatusOK, http.StatusConflict} {
		resp, err := h.post("/v1/systems/dup-sys/setup", setup, nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("setup #%d: got %d, want %d", i+1, resp.StatusCode, want)
		}
	}
	// Duplicate scenario submission under one idempotency key returns
	// the original job instead of running the scenario twice.
	doc := chaosScenario(seed, 0.2)
	hdr := map[string]string{"X-Idempotency-Key": "chaos-dup"}
	id1, code1, err := h.submit(doc, hdr)
	if err != nil {
		return err
	}
	id2, code2, err := h.submit(doc, hdr)
	if err != nil {
		return err
	}
	if code1 != http.StatusAccepted || code2 != http.StatusOK || id1 != id2 {
		return fmt.Errorf("idempotent submit: (%d,%q) then (%d,%q)", code1, id1, code2, id2)
	}
	if _, err := h.waitState(id1, "done", 20*time.Second); err != nil {
		return err
	}
	return nil
}

// probeFidelity asserts a fault-free daemon run is byte-identical to
// the library path and publishes telemetry along the way.
func (h *chaosHarness) probeFidelity(seed uint64) error {
	doc := chaosScenario(seed+1, 1.0)
	id, code, err := h.submit(doc, nil)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit: code %d, err %v", code, err)
	}
	st, err := h.waitState(id, "done", 30*time.Second)
	if err != nil {
		return err
	}
	got, err := json.Marshal(st.Result)
	if err != nil {
		return err
	}
	want, err := libraryResult(doc)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("daemon result diverged from library:\n got %s\nwant %s", got, want)
	}
	resp, err := h.client.Get(h.base + "/v1/scenarios/" + id + "/telemetry")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("telemetry: %d", resp.StatusCode)
	}
	return nil
}

func (h *chaosHarness) probeKill(seed uint64) error {
	id, code, err := h.submit(chaosScenario(seed+2, 5000), nil)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit: code %d, err %v", code, err)
	}
	if _, err := h.waitState(id, "running", 10*time.Second); err != nil {
		return err
	}
	req, _ := http.NewRequest(http.MethodDelete, h.base+"/v1/scenarios/"+id, nil)
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("kill: %d", resp.StatusCode)
	}
	if _, err := h.waitState(id, "killed", 10*time.Second); err != nil {
		return err
	}
	return nil
}

func (h *chaosHarness) probePurge(seed uint64) error {
	id, code, err := h.submit(chaosScenario(seed+3, 200), nil)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit: code %d, err %v", code, err)
	}
	// Purges queue against pending and running jobs alike and apply at
	// the next slice boundary, so there is no need to catch the run
	// mid-flight (a short run could finish before a poll sees it).
	resp, err := h.post("/v1/scenarios/"+id+"/purge", []byte(`{"session":2}`), nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("purge: %d", resp.StatusCode)
	}
	if _, err := h.waitState(id, "done", 30*time.Second); err != nil {
		return err
	}
	// The purge must be visible in the job's event stream.
	tr, err := h.client.Get(h.base + "/v1/scenarios/" + id + "/trace")
	if err != nil {
		return err
	}
	defer tr.Body.Close()
	var trace struct {
		Events []TraceEvent `json:"events"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&trace); err != nil {
		return err
	}
	for _, e := range trace.Events {
		if e.Kind == "purge" {
			return nil
		}
	}
	return fmt.Errorf("no purge event in trace (%d events)", len(trace.Events))
}

// probeOverload floods the bounded queue and asserts 429s with a
// growing Retry-After hint, then verifies the daemon recovers once the
// backlog drains.
func (h *chaosHarness) probeOverload(seed uint64) error {
	long := func(i int) []byte { return chaosScenario(seed+10+uint64(i), 5000) }
	var backlog []string
	var hints []int
	sheds := 0
	for i := 0; i < 12 && sheds < 2; i++ {
		req, err := http.NewRequest(http.MethodPost, h.base+"/v1/scenarios", bytes.NewReader(long(i)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := h.client.Do(req)
		if err != nil {
			return err
		}
		var out struct {
			ID string `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			backlog = append(backlog, out.ID)
		case http.StatusTooManyRequests:
			sheds++
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil {
				return fmt.Errorf("shed without parseable Retry-After: %q", resp.Header.Get("Retry-After"))
			}
			hints = append(hints, ra)
		default:
			return fmt.Errorf("submit #%d: unexpected %d", i, resp.StatusCode)
		}
	}
	if sheds < 2 {
		return fmt.Errorf("queue never shed (accepted %d)", len(backlog))
	}
	if hints[1] < hints[0] {
		return fmt.Errorf("Retry-After hint did not grow: %v", hints)
	}
	// Kill the backlog and wait for recovery.
	for _, id := range backlog {
		req, _ := http.NewRequest(http.MethodDelete, h.base+"/v1/scenarios/"+id, nil)
		resp, err := h.client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := h.client.Get(h.base + "/v1/stats")
		if err != nil {
			return err
		}
		var st StatsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.QueueLen == 0 && st.Accepting {
			if st.Serve.Shed < 2 {
				return fmt.Errorf("shed counter %d < 2", st.Serve.Shed)
			}
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("daemon did not recover: queue %d, accepting %v", st.QueueLen, st.Accepting)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// probeDrainRestart drains a daemon mid-run and verifies a successor
// restores the checkpoint and reproduces the library result exactly.
func probeDrainRestart(seed uint64, dir string) error {
	h, err := startHarness(Options{
		Workers:       1,
		QueueDepth:    8,
		Slice:         0.02,
		CheckpointDir: dir,
	})
	if err != nil {
		return err
	}
	// Drain is idempotent, so this keeps the daemon (and its worker
	// goroutines) from outliving the probe on any early error return.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		h.d.Drain(ctx) //nolint:errcheck
		cancel()
		h.client.CloseIdleConnections()
	}()
	// Job A is heavy enough (hundreds of simulated seconds) to still be
	// mid-run when the drain lands; job B waits behind the single worker.
	docA := chaosScenario(seed+20, 500)
	docB := chaosScenario(seed+21, 0.5)
	idA, codeA, err := h.submit(docA, nil)
	if err != nil || codeA != http.StatusAccepted {
		return fmt.Errorf("submit A: %d, %v", codeA, err)
	}
	idB, codeB, err := h.submit(docB, nil)
	if err != nil || codeB != http.StatusAccepted {
		return fmt.Errorf("submit B: %d, %v", codeB, err)
	}
	if _, err := h.waitState(idA, "running", 10*time.Second); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = h.d.Drain(ctx)
	cancel()
	h.client.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		return fmt.Errorf("no checkpoint after drain: %w", err)
	}

	h2, err := startHarness(Options{
		Workers:       2,
		QueueDepth:    8,
		Slice:         0.02,
		CheckpointDir: dir,
	})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		h2.d.Drain(ctx) //nolint:errcheck
		cancel()
		h2.client.CloseIdleConnections()
	}()
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint not consumed on restore")
	}
	for id, doc := range map[string][]byte{idA: docA, idB: docB} {
		st, err := h2.waitState(id, "done", 60*time.Second)
		if err != nil {
			return fmt.Errorf("restored %s: %w", id, err)
		}
		got, err := json.Marshal(st.Result)
		if err != nil {
			return err
		}
		want, err := libraryResult(doc)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("restored %s diverged:\n got %s\nwant %s", id, got, want)
		}
	}
	if h2.d.Registry().ServeCounters().Restores != 2 {
		return fmt.Errorf("restores = %d, want 2", h2.d.Registry().ServeCounters().Restores)
	}
	return nil
}

// probeWatchdog submits a scenario to a daemon whose event budget is
// far too small and asserts the run degrades to a failed state with a
// replayable repro file instead of wedging the worker.
func probeWatchdog(seed uint64, dir string) error {
	h, err := startHarness(Options{
		Workers:       1,
		QueueDepth:    4,
		Slice:         0.05,
		Watchdog:      event.Watchdog{MaxEvents: 500},
		CheckpointDir: dir,
	})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		h.d.Drain(ctx) //nolint:errcheck
		cancel()
		h.client.CloseIdleConnections()
	}()
	id, code, err := h.submit(chaosScenario(seed+30, 10), nil)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit: %d, %v", code, err)
	}
	st, err := h.waitState(id, "failed", 30*time.Second)
	if err != nil {
		return err
	}
	if st.Error == "" || st.Repro == "" {
		return fmt.Errorf("failed job missing error/repro: %+v", st)
	}
	if _, err := os.Stat(st.Repro); err != nil {
		return fmt.Errorf("repro file: %w", err)
	}
	var repro struct {
		Scenario json.RawMessage `json:"scenario"`
	}
	data, err := os.ReadFile(st.Repro)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &repro); err != nil {
		return err
	}
	// The repro must be replayable through the library verbatim.
	if _, err := libraryResult(repro.Scenario); err != nil {
		return fmt.Errorf("repro not replayable: %w", err)
	}
	if h.d.Registry().ServeCounters().WatchdogTrips == 0 {
		return fmt.Errorf("watchdog trip not counted")
	}
	return nil
}

// probeGoroutines asserts the battery returns to its starting
// goroutine count (allowing the runtime a settle window).
func probeGoroutines(start int) error {
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= start {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("goroutines: started with %d, left with %d", start, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
