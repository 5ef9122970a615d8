package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"leaveintime/internal/config"
	"leaveintime/internal/metrics"
)

// JobState is the lifecycle of a submitted scenario.
type JobState int32

const (
	JobPending JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobKilled
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobKilled:
		return "killed"
	}
	return "unknown"
}

// TraceEvent is one entry in a job's event stream: state changes,
// slice boundaries, purges, and failures, stamped with simulated time.
type TraceEvent struct {
	T      float64 `json:"t"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// traceCap bounds a job's trace ring; past it events are counted, not
// stored, so a long run cannot grow daemon memory without bound.
const traceCap = 512

// job is one submitted scenario and everything observable about it.
// The worker owns the run; handlers only touch the mu-guarded mirror
// (telemetry snapshot, trace ring, result) that the worker republishes
// at slice boundaries.
type job struct {
	id  string
	key string // idempotency key ("" = none)
	raw json.RawMessage
	sc  *config.Scenario

	st     atomic.Int32
	killed atomic.Bool

	mu        sync.Mutex
	purges    []int
	telemetry *metrics.Snapshot
	trace     []TraceEvent
	dropped   int
	result    *config.Result
	errMsg    string
	repro     string
}

func newJob(id, key string, raw []byte, sc *config.Scenario) *job {
	cp := make([]byte, len(raw))
	copy(cp, raw)
	return &job{id: id, key: key, raw: cp, sc: sc}
}

func (j *job) state() JobState     { return JobState(j.st.Load()) }
func (j *job) setState(s JobState) { j.st.Store(int32(s)) }

func (j *job) event(t float64, kind, detail string) {
	j.mu.Lock()
	if len(j.trace) < traceCap {
		j.trace = append(j.trace, TraceEvent{T: t, Kind: kind, Detail: detail})
	} else {
		j.dropped++
	}
	j.mu.Unlock()
}

func (j *job) fail(t float64, msg string) {
	j.mu.Lock()
	j.errMsg = msg
	j.mu.Unlock()
	j.event(t, "failed", msg)
	j.setState(JobFailed)
}

// takePurges drains the pending wire-purge requests.
func (j *job) takePurges() []int {
	j.mu.Lock()
	p := j.purges
	j.purges = nil
	j.mu.Unlock()
	return p
}

// --- worker ----------------------------------------------------------

func (d *Daemon) worker() {
	defer d.workers.Done()
	for {
		select {
		case <-d.stop:
			return
		case j := <-d.queue:
			d.maybeResume()
			d.runJob(j)
			select {
			case <-d.stop:
				return
			default:
			}
		}
	}
}

// maybeResume reopens admission once the queue has drained to the low
// watermark (hysteresis: shedding starts at HighWater, stops at
// LowWater, so the daemon does not flap at the boundary).
func (d *Daemon) maybeResume() {
	d.jmu.Lock()
	if !d.draining && !d.accepting && len(d.queue) <= d.opts.LowWater {
		d.accepting = true
	}
	d.jmu.Unlock()
}

// runJob executes one scenario in slices, republishing telemetry and
// honoring wire purges / kills / drain at every slice boundary. A
// panic or watchdog trip degrades the job to a failed state with a
// replayable repro document; the worker and sibling jobs survive.
func (d *Daemon) runJob(j *job) {
	if j.killed.Load() {
		j.setState(JobKilled)
		j.event(0, "killed", "killed before start")
		return
	}
	j.setState(JobRunning)
	interrupted := false
	defer func() {
		if r := recover(); r != nil {
			d.ar.AtomicInc(metrics.HServePanics)
			d.ar.AtomicInc(metrics.HServeScenarioFailed)
			msg := fmt.Sprintf("panic: %v", r)
			// Repro before fail: the failed state is the signal pollers
			// wait on, so everything observable must be in place first.
			d.writeRepro(j, msg)
			j.fail(-1, msg)
		}
		if interrupted {
			// Drain caught the job mid-run; it goes back to pending so
			// the checkpoint carries it into the next incarnation,
			// which re-runs it from the start (runs are deterministic,
			// so the rerun reproduces the same telemetry).
			j.setState(JobPending)
		}
	}()

	reg := metrics.NewRegistry()
	run, err := j.sc.Prepare(reg)
	if err != nil {
		d.ar.AtomicInc(metrics.HServeScenarioFailed)
		j.fail(0, err.Error())
		return
	}
	run.Sim().SetWatchdog(d.opts.Watchdog)
	run.Start()
	j.event(0, "start", "")

	for until := d.opts.Slice; ; until += d.opts.Slice {
		// A slice no event falls in changes nothing a poll could see, and
		// the watchdog only meters events: jump to the next event (or the
		// end), so a long idle run costs its events, not its duration.
		if next, ok := run.Sim().NextTime(); !ok {
			until = run.Duration()
		} else if next > until {
			until = next
		}
		done := run.RunSlice(until)
		if reason := run.Sim().Tripped(); reason != "" {
			d.ar.AtomicInc(metrics.HServeWatchdogTrips)
			d.ar.AtomicInc(metrics.HServeScenarioFailed)
			d.writeRepro(j, "watchdog: "+reason)
			j.fail(run.Now(), "watchdog: "+reason)
			return
		}
		snap := reg.Snapshot(run.Now())
		j.mu.Lock()
		j.telemetry = snap
		j.mu.Unlock()
		for _, id := range j.takePurges() {
			if run.PurgeSession(id) {
				j.event(run.Now(), "purge", fmt.Sprintf("session %d", id))
			} else {
				j.event(run.Now(), "purge-noop", fmt.Sprintf("session %d", id))
			}
		}
		if done {
			break
		}
		if j.killed.Load() {
			j.setState(JobKilled)
			j.event(run.Now(), "killed", "")
			return
		}
		select {
		case <-d.stop:
			interrupted = true
			j.event(run.Now(), "interrupted", "drain checkpoint")
			return
		default:
		}
	}

	res := run.Finish()
	j.mu.Lock()
	j.result = res
	j.mu.Unlock()
	j.event(run.Now(), "done", "")
	j.setState(JobDone)
	d.ar.AtomicInc(metrics.HServeScenarioDone)
}

// --- checkpoint / restore / repro ------------------------------------

type checkpointDoc struct {
	Version int             `json:"version"`
	Jobs    []checkpointJob `json:"jobs"`
}

type checkpointJob struct {
	ID       string          `json:"id"`
	Key      string          `json:"key,omitempty"`
	Scenario json.RawMessage `json:"scenario"`
}

func (d *Daemon) checkpointPath() string {
	return filepath.Join(d.opts.CheckpointDir, "checkpoint.json")
}

// checkpoint persists every job that has not reached a terminal state
// (pending in the queue, or interrupted mid-run and reverted to
// pending by the drain path). tmp+rename makes the write atomic: a
// crash mid-checkpoint leaves the previous checkpoint intact.
func (d *Daemon) checkpoint() error {
	if d.opts.CheckpointDir == "" {
		return nil
	}
	d.jmu.Lock()
	doc := checkpointDoc{Version: 1}
	for _, id := range d.jobOrder {
		j := d.jobs[id]
		if j.state() == JobPending || j.state() == JobRunning {
			doc.Jobs = append(doc.Jobs, checkpointJob{ID: j.id, Key: j.key, Scenario: j.raw})
		}
	}
	d.jmu.Unlock()
	if len(doc.Jobs) == 0 {
		os.Remove(d.checkpointPath()) //nolint:errcheck — a stale empty checkpoint is harmless
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(d.opts.CheckpointDir, 0o755); err != nil {
		return err
	}
	tmp := d.checkpointPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.checkpointPath()); err != nil {
		return err
	}
	d.ar.AtomicInc(metrics.HServeCheckpoints)
	return nil
}

// restore re-enqueues the jobs a drained predecessor checkpointed,
// then consumes the checkpoint. Scenario runs are deterministic, so a
// restored job reproduces byte-identical telemetry to an uninterrupted
// one.
func (d *Daemon) restore() error {
	if d.opts.CheckpointDir == "" {
		return nil
	}
	data, err := os.ReadFile(d.checkpointPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("corrupt checkpoint: %w", err)
	}
	if doc.Version != 1 {
		return fmt.Errorf("unsupported checkpoint version %d", doc.Version)
	}
	for _, cj := range doc.Jobs {
		sc, err := config.Parse(cj.Scenario)
		if err != nil {
			return fmt.Errorf("checkpointed job %s: %w", cj.ID, err)
		}
		// Keep fresh submissions from colliding with restored IDs.
		if n, err := strconv.ParseInt(strings.TrimPrefix(cj.ID, "job-"), 10, 64); err == nil {
			for {
				cur := jobSeq.Load()
				if cur >= n || jobSeq.CompareAndSwap(cur, n) {
					break
				}
			}
		}
		j := newJob(cj.ID, cj.Key, cj.Scenario, sc)
		d.jmu.Lock()
		d.jobs[cj.ID] = j
		d.jobOrder = append(d.jobOrder, cj.ID)
		d.jmu.Unlock()
		select {
		case d.queue <- j:
		default:
			return fmt.Errorf("checkpoint holds more jobs than the queue (%d)", d.opts.QueueDepth)
		}
		d.ar.AtomicInc(metrics.HServeRestores)
	}
	return os.Remove(d.checkpointPath())
}

// writeRepro persists a poisoned scenario next to the checkpoint so it
// can be replayed under a debugger (or resubmitted) verbatim.
func (d *Daemon) writeRepro(j *job, reason string) {
	if d.opts.CheckpointDir == "" {
		return
	}
	if err := os.MkdirAll(d.opts.CheckpointDir, 0o755); err != nil {
		return
	}
	doc := struct {
		ID       string          `json:"id"`
		Reason   string          `json:"reason"`
		Scenario json.RawMessage `json:"scenario"`
	}{j.id, reason, j.raw}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(d.opts.CheckpointDir, "repro-"+j.id+".json")
	if os.WriteFile(path, data, 0o644) == nil {
		j.mu.Lock()
		j.repro = path
		j.mu.Unlock()
	}
}

// --- job handlers ----------------------------------------------------

var jobSeq atomic.Int64

// handleSubmit accepts a scenario into the bounded queue. Past the
// high watermark (or while draining) it sheds with 429 plus a capped
// exponential Retry-After hint. An X-Idempotency-Key header makes the
// submission safe to retry: a duplicate key returns the original job.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, "body read: "+err.Error())
		return
	}
	key := r.Header.Get("X-Idempotency-Key")
	if key != "" {
		d.jmu.Lock()
		for _, id := range d.jobOrder {
			if d.jobs[id].key == key {
				d.jmu.Unlock()
				d.ar.AtomicInc(metrics.HServeDuplicates)
				writeJSON(w, http.StatusOK, map[string]string{"id": id, "duplicate": "true"})
				return
			}
		}
		d.jmu.Unlock()
	}
	sc, err := config.Parse(body)
	if err != nil {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := fmt.Sprintf("job-%06d", jobSeq.Add(1))
	j := newJob(id, key, body, sc)

	d.jmu.Lock()
	if d.draining || !d.accepting || len(d.queue) >= d.opts.HighWater {
		if len(d.queue) >= d.opts.HighWater {
			d.accepting = false
		}
		d.jmu.Unlock()
		d.shed(w)
		return
	}
	select {
	case d.queue <- j:
	default:
		// The watermark check passed but the channel is full (HighWater
		// may equal QueueDepth): shed identically.
		d.accepting = false
		d.jmu.Unlock()
		d.shed(w)
		return
	}
	d.jobs[id] = j
	d.jobOrder = append(d.jobOrder, id)
	if len(d.queue) >= d.opts.HighWater {
		d.accepting = false
	}
	d.jmu.Unlock()

	d.shedStreak.Store(0)
	d.ar.AtomicInc(metrics.HServeScenarioQueued)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (d *Daemon) shed(w http.ResponseWriter) {
	d.ar.AtomicInc(metrics.HServeShed)
	hint := d.retryAfter()
	secs := int(math.Ceil(hint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, "queue over high watermark; retry later")
}

func (d *Daemon) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	d.jmu.Lock()
	j := d.jobs[r.PathValue("id")]
	d.jmu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
	}
	return j
}

// JobStatus is the wire status document for one job.
type JobStatus struct {
	ID      string         `json:"id"`
	State   string         `json:"state"`
	Error   string         `json:"error,omitempty"`
	Repro   string         `json:"repro,omitempty"`
	Result  *config.Result `json:"result,omitempty"`
	Trace   int            `json:"trace_events"`
	Dropped int            `json:"trace_dropped,omitempty"`
}

func (d *Daemon) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := d.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	st := JobStatus{
		ID:      j.id,
		State:   j.state().String(),
		Error:   j.errMsg,
		Repro:   j.repro,
		Result:  j.result,
		Trace:   len(j.trace),
		Dropped: j.dropped,
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleJobTelemetry(w http.ResponseWriter, r *http.Request) {
	j := d.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	snap := j.telemetry
	j.mu.Unlock()
	if snap == nil {
		httpError(w, http.StatusNotFound, "no telemetry yet")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (d *Daemon) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := d.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	events := make([]TraceEvent, len(j.trace))
	copy(events, j.trace)
	dropped := j.dropped
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Events  []TraceEvent `json:"events"`
		Dropped int          `json:"dropped"`
	}{events, dropped})
}

// handleJobPurge queues a mid-run session teardown; the worker applies
// it at the next slice boundary (the wire analog of a RELEASE arriving
// while packets are in flight).
func (d *Daemon) handleJobPurge(w http.ResponseWriter, r *http.Request) {
	j := d.lookupJob(w, r)
	if j == nil {
		return
	}
	var req struct {
		Session int `json:"session"`
	}
	if !decode(d, w, r, &req) {
		return
	}
	switch j.state() {
	case JobPending, JobRunning:
		j.mu.Lock()
		j.purges = append(j.purges, req.Session)
		j.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]bool{"queued": true})
	default:
		httpError(w, http.StatusConflict, "job already finished")
	}
}

func (d *Daemon) handleJobKill(w http.ResponseWriter, r *http.Request) {
	j := d.lookupJob(w, r)
	if j == nil {
		return
	}
	drainBody(r)
	switch j.state() {
	case JobDone, JobFailed, JobKilled:
		httpError(w, http.StatusConflict, "job already finished")
	default:
		j.killed.Store(true)
		writeJSON(w, http.StatusOK, map[string]bool{"killed": true})
	}
}
