package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json repeats the
// names with their direction and bound; bench_test.go holds the two
// lists equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_wall_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
	{"alloc_kb_per_op", "kB"},
}

// rows maps a metric name to its value.
type rows map[string]float64

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as -json stores it.
type result struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"GOMAXPROCS"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Digest     string            `json:"digest"`
	Metrics    map[string]metric `json:"metrics"`
	// Slices holds the timed phase's raw readings, so that a -json file
	// can be re-read with another estimator.
	Slices []sliceReading `json:"slices,omitempty"`
	Setups []setupReading `json:"setups,omitempty"`
	// notes holds what is printed beside a row but is not a metric.
	notes    map[string]string
	failures []string
}

func newResult(w *workload, seed uint64, seconds float64, trace bool) *result {
	return &result{
		Workload: w.name, Trace: trace, Seed: seed, Seconds: seconds,
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics: map[string]metric{}, notes: map[string]string{},
	}
}

func (r *result) set(defs []metricDef, v rows) {
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// commit names the code that ran: HEAD, marked when the tree differs
// from it. The driver's checkout is not a repository; there it is
// "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		c += "+dirty"
	}
	return c
}

// scaled sizes a count given for runSeconds to the requested length.
func scaled(n int, seconds float64) int {
	return max(1, int(math.Round(float64(n)*seconds/runSeconds)))
}

// sliceReading is what the clock read for one slice of ops and for the
// host probe on either side of it, in ms.
type sliceReading struct {
	Ops         int     `json:"ops"`
	WallMs      float64 `json:"wall_ms"`
	CPUMs       float64 `json:"cpu_ms"`
	ProbeBefore float64 `json:"probe_before_ms"`
	ProbeAfter  float64 `json:"probe_after_ms"`
}

// setupReading is the same for one batch of set-ups.
type setupReading struct {
	Setups      int     `json:"setups"`
	MeanS       float64 `json:"mean_s"`
	ProbeBefore float64 `json:"probe_before_ms"`
	ProbeAfter  float64 `json:"probe_after_ms"`
}

// opStats is what one phase of ops measured. Times with a norm prefix
// are host-normalised (see probe.go); durs are too.
type opStats struct {
	ops             int
	wall, normWall  time.Duration
	cpu, normCPU    time.Duration
	durs            []float64 // per-op wall time, ms, normalised, sorted
	rawP50          float64   // ms, as the clock read
	allocB, mallocs uint64
	gcCycles        uint32
	gcPauseNs       uint64
	slices          []sliceReading
}

func (s opStats) p50() float64 { return quantile(s.durs, 0.5) }

// host is the mean factor the phase's times were multiplied by.
func (s opStats) host() float64 { return float64(s.normWall) / float64(s.wall) }

// quantile reads q from sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// rusage is getrusage for this process; a failure reads as zeros.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports kB

// runOps issues ops first..first+n-1 and measures the phase. The ops go
// in slices of w.slice with the host probe timed between slices, while
// no op is running; within a slice the workload's client goroutines
// each take the next index when their previous op is done (a closed
// loop).
func runOps(w *workload, inst instance, r *result, first, n int) opStats {
	st := opStats{ops: n, durs: make([]float64, n)}
	raw := make([]float64, n)
	var mu sync.Mutex // guards r.fail
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := hostProbe()
	for lo := 0; lo < n; lo += w.slice {
		hi := min(lo+w.slice, n)
		var next atomic.Int64
		next.Store(int64(lo))
		client := func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= hi {
					return
				}
				t := time.Now()
				err := inst.Op(first + k)
				raw[k] = float64(time.Since(t)) / 1e6
				if err != nil {
					mu.Lock()
					r.fail(fmt.Errorf("op %d: %w", first+k, err))
					mu.Unlock()
				}
			}
		}
		cpu0, t0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client()
			}()
		}
		wg.Wait()
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		after := hostProbe()
		f := hostFactor(before, after)
		st.slices = append(st.slices, sliceReading{hi - lo, float64(wall) / 1e6, float64(cpu) / 1e6, before, after})
		before = after
		st.wall += wall
		st.cpu += cpu
		st.normWall += time.Duration(float64(wall) * f)
		st.normCPU += time.Duration(float64(cpu) * f)
		for k := lo; k < hi; k++ {
			st.durs[k] = raw[k] * f
		}
	}
	runtime.ReadMemStats(&m1)
	st.allocB, st.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	st.gcCycles, st.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	r.Attempted += n
	sort.Float64s(st.durs)
	st.rawP50 = median(raw)
	return st
}

// spareThreads makes the runtime create n threads now and park them.
// A thread's descriptors (its m and two g's, about 6 kB) live in the
// heap for good, and whether a run needs a fifth or sixth thread
// depends on timing: without the spares the simulations' live_heap_mb,
// 0.1-0.2 MB, comes out 3-5 % apart from run to run. With them every
// later need is met from the parked ones.
func spareThreads(n int) {
	var locked, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		locked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			runtime.LockOSThread() // n goroutines locked at once need n threads
			locked.Done()
			<-release
			runtime.UnlockOSThread() // so that the thread is kept, not ended
		}()
	}
	locked.Wait()
	close(release)
	done.Wait()
}

// liveHeap is HeapAlloc after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupBatches is how many batch means setup_s is the median of.
const setupBatches = 8

// timeSetups performs half of the run's set-ups back to back, in
// batches of per with the host probe between them, and returns each
// batch's reading. Only open is timed; Close is not.
func timeSetups(w *workload, seed uint64, r *result, per int) []setupReading {
	var out []setupReading
	before := hostProbe()
	for b := 0; b < setupBatches/2; b++ {
		var sum time.Duration
		for i := 0; i < per; i++ {
			t := time.Now()
			inst, err := w.open(seed)
			sum += time.Since(t)
			if err == nil {
				err = inst.Close()
			}
			if err != nil {
				r.fail(fmt.Errorf("set-up: %w", err))
			}
		}
		after := hostProbe()
		out = append(out, setupReading{per, sum.Seconds() / float64(per), before, after})
		before = after
	}
	return out
}

// measure is the untraced run: the six end-to-end metrics of one
// workload.
func measure(w *workload, seed uint64, seconds float64) *result {
	r := newResult(w, seed, seconds, false)
	spareThreads(8)
	ops := scaled(w.ops, seconds)
	per := max(1, scaled(w.setups, seconds)/setupBatches)
	warm := (ops + 15) / 16

	inst, err := w.open(seed)
	if err != nil {
		r.Attempted++
		r.fail(fmt.Errorf("set-up: %w", err))
		return r
	}
	runOps(w, inst, r, 0, warm)

	// Half the set-ups before the timed ops and half after, so drift
	// over the run lands on both sides of the median.
	r.Setups = timeSetups(w, seed, r, per)
	runtime.GC()
	st := runOps(w, inst, r, warm, ops)
	r.Slices = st.slices
	live := liveHeap()
	r.Setups = append(r.Setups, timeSetups(w, seed, r, per)...)
	var norm, raw []float64
	for _, b := range r.Setups {
		raw = append(raw, b.MeanS)
		norm = append(norm, b.MeanS*hostFactor(b.ProbeBefore, b.ProbeAfter))
	}

	r.Digest = fmt.Sprintf("%016x", inst.Digest())
	if err := inst.Close(); err != nil {
		r.fail(err)
	}
	runtime.KeepAlive(inst)

	n := float64(ops)
	r.set(endToEnd, rows{
		"setup_s":         median(norm),
		"work_per_wall_s": n * w.workPerOp / st.normWall.Seconds(),
		"op_p50_ms":       st.p50(),
		"cpu_ms_per_op":   float64(st.normCPU) / 1e6 / n,
		"live_heap_mb":    float64(live) / (1 << 20),
		"alloc_kb_per_op": float64(st.allocB) / 1024 / n,
	})
	r.notes["setup_s"] = fmt.Sprintf("raw=%.6g median of %d batch means of %d", median(raw), len(raw), per)
	r.notes["work_per_wall_s"] = fmt.Sprintf("raw=%.6g %s/s host=%.3f", n*w.workPerOp/st.wall.Seconds(), w.workUnit, st.host())
	r.notes["cpu_ms_per_op"] = fmt.Sprintf("raw=%.6g", float64(st.cpu)/1e6/n)
	r.notes["op_p50_ms"] = fmt.Sprintf("raw=%.6g n=%d", st.rawP50, ops)
	// The highest percentile with ten samples beyond it.
	if ops > 10 {
		r.notes["op_p50_ms"] += fmt.Sprintf(" p%.4g=%.6g", 100*float64(ops-11)/float64(ops-1), st.durs[ops-11])
	}
	r.Correct = r.Failed == 0
	return r
}

// print writes one row per metric: workload, metric, value, unit, and
// whatever is reported beside it.
func (r *result) print(defs []metricDef) {
	for _, d := range defs {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("%-16s %-32s %14.6g %-6s", r.Workload, d.name, m.Value, m.Unit)
		if note := r.notes[d.name]; note != "" {
			line += " " + note
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("%-16s %-32s %14d\n", r.Workload, "ops_attempted", r.Attempted)
	fmt.Printf("%-16s %-32s %14d\n", r.Workload, "ops_failed", r.Failed)
	fmt.Printf("%-16s %-32s %14s\n", r.Workload, "digest", r.Digest)
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "%s: FAILED %s\n", r.Workload, f)
	}
}
