package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"leaveintime/internal/scenarios"
)

// buildLitsim compiles the litsim binary once per test run and returns
// its path. Building the real binary (rather than calling into the
// library) exercises flag parsing, the telemetry file plumbing, and the
// exit codes — the contract scripts depend on.
var buildLitsim = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "litsim-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "litsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		return "", &buildError{out: string(out), err: err}
	}
	return bin, nil
})

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

// The telemetry schema, re-declared field by field. The test decodes
// with DisallowUnknownFields in both directions (unknown JSON keys fail
// the decode; renamed or dropped keys leave zero values the assertions
// catch), so any change to the emitted schema must consciously update
// this mirror — that is the "schema-stable" guarantee scripts consuming
// -telemetry rely on.
type telemetryPoint struct {
	AOff     float64           `json:"a_off_s"`
	Snapshot telemetrySnapshot `json:"snapshot"`
}

type telemetrySnapshot struct {
	Duration float64 `json:"duration_s"`
	Engine   struct {
		Scheduled     int64 `json:"scheduled"`
		Canceled      int64 `json:"canceled"`
		Fired         int64 `json:"fired"`
		HeapHighWater int64 `json:"heap_high_water"`
	} `json:"engine"`
	Pool struct {
		Taken    int64 `json:"taken"`
		Released int64 `json:"released"`
		Live     int64 `json:"live"`
	} `json:"pool"`
	Admission struct {
		AC1 telemetryProc `json:"ac1"`
		AC2 telemetryProc `json:"ac2"`
		AC3 telemetryProc `json:"ac3"`
	} `json:"admission"`
	Faults struct {
		LinkDowns      int64 `json:"link_downs"`
		LinkUps        int64 `json:"link_ups"`
		InFlightDrops  int64 `json:"in_flight_drops"`
		PurgeDrops     int64 `json:"purge_drops"`
		SignalingDrops int64 `json:"signaling_drops"`
		SessionsPurged int64 `json:"sessions_purged"`
		Releases       int64 `json:"releases"`
		Resetups       int64 `json:"resetups"`
		ResetupRejects int64 `json:"resetup_rejects"`
		Stalls         int64 `json:"stalls"`
		WatchdogTrips  int64 `json:"watchdog_trips"`
	} `json:"faults"`
	Ports []struct {
		Name             string  `json:"name"`
		Capacity         float64 `json:"capacity_bps"`
		Arrivals         int64   `json:"arrivals"`
		ArrivedBits      float64 `json:"arrived_bits"`
		Transmissions    int64   `json:"transmissions"`
		TransmittedBits  float64 `json:"transmitted_bits"`
		Utilization      float64 `json:"utilization"`
		DroppedPackets   int64   `json:"dropped_packets"`
		DroppedBits      float64 `json:"dropped_bits"`
		FaultDrops       int64   `json:"fault_drops"`
		FaultDroppedBits float64 `json:"fault_dropped_bits"`
		SignalingDrops   int64   `json:"signaling_drops"`
		QueueHighWater   int64   `json:"queue_high_water_pkts"`
		Sched            struct {
			Regulated       int64   `json:"regulated"`
			EligibilityWait float64 `json:"eligibility_wait_s"`
			DeadlineMisses  int64   `json:"deadline_misses"`
		} `json:"sched"`
	} `json:"ports"`
}

type telemetryProc struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
}

// TestTelemetrySchema: litsim -telemetry emits JSON that decodes into
// the typed mirror above with no unknown fields, and a short fig7 run
// produces live counters — events fired, packets pooled, sessions
// admitted, bits transmitted on every port.
func TestTelemetrySchema(t *testing.T) {
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	out := filepath.Join(t.TempDir(), "telemetry.json")
	cmd := exec.Command(bin, "-experiment", "fig7", "-duration", "0.5", "-seed", "1", "-telemetry", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("litsim fig7 failed: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var points []telemetryPoint
	if err := dec.Decode(&points); err != nil {
		t.Fatalf("telemetry does not match the pinned schema: %v", err)
	}
	if len(points) < 2 {
		t.Fatalf("fig7 telemetry has %d sweep points, want one per a_off value", len(points))
	}
	for i, p := range points {
		s := p.Snapshot
		if i > 0 && p.AOff <= points[i-1].AOff {
			t.Errorf("point %d: a_off_s %v not increasing after %v", i, p.AOff, points[i-1].AOff)
		}
		if s.Duration != 0.5 {
			t.Errorf("point %d: duration_s = %v, want 0.5", i, s.Duration)
		}
		if s.Engine.Fired <= 0 || s.Engine.Scheduled < s.Engine.Fired {
			t.Errorf("point %d: engine counters implausible: %+v", i, s.Engine)
		}
		if s.Pool.Taken <= 0 || s.Pool.Released != s.Pool.Taken-s.Pool.Live {
			t.Errorf("point %d: pool counters implausible: %+v", i, s.Pool)
		}
		if s.Admission.AC1.Accepted+s.Admission.AC2.Accepted+s.Admission.AC3.Accepted <= 0 {
			t.Errorf("point %d: no admissions recorded: %+v", i, s.Admission)
		}
		// The figure runs inject no faults: every chaos counter must be
		// exactly zero (the fault layer is pay-for-what-you-use).
		if s.Faults != (telemetrySnapshot{}.Faults) {
			t.Errorf("point %d: fault counters nonzero on a fault-free run: %+v", i, s.Faults)
		}
		if len(s.Ports) == 0 {
			t.Errorf("point %d: no port snapshots", i)
		}
		for _, port := range s.Ports {
			if port.Name == "" || port.Capacity <= 0 {
				t.Errorf("point %d: bad port identity: %+v", i, port)
			}
			if port.Transmissions <= 0 || port.TransmittedBits <= 0 || port.Utilization <= 0 {
				t.Errorf("point %d port %s: no traffic recorded: %+v", i, port.Name, port)
			}
			if port.FaultDrops != 0 || port.FaultDroppedBits != 0 || port.SignalingDrops != 0 {
				t.Errorf("point %d port %s: fault drops nonzero on a fault-free run: %+v", i, port.Name, port)
			}
		}
	}
}

// TestWallClockWatchdog: a run that outlives -max-wall is aborted with
// exit status 3 and the exact command line that reproduces it, instead
// of hanging forever.
func TestWallClockWatchdog(t *testing.T) {
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	// The full paper sweep takes far longer than a millisecond of wall
	// clock, so this budget always trips.
	cmd := exec.Command(bin, "-experiment", "all", "-max-wall", "1ms")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("litsim -max-wall 1ms exited 0:\n%s", out)
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("litsim did not run: %v", err)
	}
	if code := exit.ExitCode(); code != 3 {
		t.Errorf("exit code %d, want 3", code)
	}
	if !strings.Contains(string(out), "wall-clock budget") {
		t.Errorf("missing watchdog message:\n%s", out)
	}
	if !strings.Contains(string(out), "reproduce with:") || !strings.Contains(string(out), "-max-wall") {
		t.Errorf("missing reproduction command:\n%s", out)
	}
}

// TestUnknownExperiment: an unrecognized -experiment must fail loudly —
// non-zero exit, the offending name, and the usage text — rather than
// silently running the default.
func TestUnknownExperiment(t *testing.T) {
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	cmd := exec.Command(bin, "-experiment", "bogus")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("litsim -experiment bogus exited 0:\n%s", out)
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("litsim did not run: %v", err)
	}
	if code := exit.ExitCode(); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(string(out), `unknown experiment "bogus"`) {
		t.Errorf("missing unknown-experiment message:\n%s", out)
	}
	if !strings.Contains(string(out), "-experiment") || !strings.Contains(string(out), "Usage") {
		t.Errorf("missing usage text:\n%s", out)
	}
}

// TestDurationRefused: a negative or non-finite -duration exits 2 with
// one line naming the flag, where it used to run the paper's length
// (-1, NaN) or never return (Inf). Each run has a deadline, so a binary
// that runs anyway fails the test instead of hanging it.
func TestDurationRefused(t *testing.T) {
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	for _, args := range [][]string{
		{"-experiment", "fig7", "-duration", "-1"},
		{"-experiment", "fig7", "-duration", "NaN"},
		{"-experiment", "metro", "-duration", "Inf"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 || timedOut {
			t.Errorf("%v: %v, want exit 2", args, err)
			continue
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-duration") || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q; want one line naming -duration and no output", args, msg, stdout.String())
		}
	}
}

// TestRetiredShardFlagsAreUnknown: metro runs serially and the shard
// flags are gone, not ignored — a command line that still asks for
// shards or workers exits 2 naming the flag instead of running serially
// behind its back.
func TestRetiredShardFlagsAreUnknown(t *testing.T) {
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	for _, name := range []string{"-shards", "-workers"} {
		out, err := exec.Command(bin, "-experiment", "metro", "-duration", "0.1", name, "2").CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Errorf("%s 2: %v, want exit 2\n%s", name, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+name) {
			t.Errorf("%s 2: flag not named:\n%s", name, out)
		}
	}
}

// TestComparisonExperiment: -experiment comparison prints the live
// discipline comparison table exactly as the library formats it, then
// one newline.
func TestComparisonExperiment(t *testing.T) {
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	out, err := exec.Command(bin, "-experiment", "comparison", "-duration", "2", "-seed", "1").Output()
	if err != nil {
		t.Fatalf("litsim -experiment comparison: %v", err)
	}
	if want := scenarios.RunComparison(2, 1, 0.650).Format() + "\n"; string(out) != want {
		t.Errorf("output differs from the library table:\n got %q\nwant %q", out, want)
	}
}

// run runs the binary with a deadline, so a binary that runs what it
// should refuse fails the test instead of hanging it.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin, err := buildLitsim()
	if err != nil {
		t.Fatalf("building litsim: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok && ctx.Err() == nil {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("litsim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestViewRefused: -json or -plot on an experiment that has no such
// view exits 2 with one line naming the flag and the experiment, as
// -telemetry does, where it used to print the text (and, for "all",
// text tables between JSON documents). -json and -plot together exit 2
// too. Figures 12-13 have no chart: -plot used to print Figure 8's.
func TestViewRefused(t *testing.T) {
	for _, c := range []struct {
		name string // the experiment the message names
		args []string
	}{
		{"all", []string{"-json"}},
		{"all", []string{"-plot"}},
		{"all", []string{"-experiment", "all", "-json"}},
		{"fig7", []string{"-experiment", "fig7", "-json"}},
		{"fig14", []string{"-experiment", "fig14", "-plot"}},
		{"fig12", []string{"-experiment", "fig12", "-plot"}},
		{"fig13", []string{"-experiment", "fig13", "-plot"}},
		{"", []string{"-experiment", "fig9", "-json", "-plot"}},
	} {
		stdout, stderr, code := run(t, append(c.args, "-duration", "0.5")...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, %d bytes on stdout, stderr %q; want exit 2, one line on stderr, no output", c.args, code, len(stdout), stderr)
		} else if c.name != "" && !strings.Contains(stderr, fmt.Sprintf("not %q", c.name)) {
			t.Errorf("%v: %q does not name %q", c.args, stderr, c.name)
		}
	}
}

// TestBufferJSON: the fig12 JSON view carries the four Figures 12-13
// distributions, P(<=k) for each k that FormatBuffers prints.
func TestBufferJSON(t *testing.T) {
	stdout, stderr, code := run(t, "-experiment", "fig12", "-json", "-duration", "2", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var view struct {
		CDF map[string][]float64 `json:"buffer_cdf"`
	}
	if err := json.Unmarshal([]byte(stdout), &view); err != nil {
		t.Fatal(err)
	}
	text := scenarios.RunFig8Observed(2, 3, nil).FormatBuffers()
	lines := strings.Split(strings.TrimSpace(text), "\n")[1:]
	for i, key := range []string{"noctl_node1", "noctl_node5", "ctl_node1", "ctl_node5"} {
		var got strings.Builder
		for k, p := range view.CDF[key] {
			fmt.Fprintf(&got, " %d:%.4f", k, p)
		}
		_, want, _ := strings.Cut(lines[i], "P(<=k):")
		if len(view.CDF[key]) == 0 || got.String() != want {
			t.Errorf("%s: JSON%s, FormatBuffers%s", key, got.String(), want)
		}
	}
}

// TestAllRunsTheTable: "all" prints each row's own output in table
// order, and every name and alias the table holds selects a run.
func TestAllRunsTheTable(t *testing.T) {
	args := []string{"-duration", "1", "-seed", "2"}
	var want strings.Builder
	for _, e := range scenarios.Experiments {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			stdout, stderr, code := run(t, append([]string{"-experiment", name}, args...)...)
			if code != 0 || stdout == "" {
				t.Errorf("-experiment %s: exit %d, %d bytes out: %s", name, code, len(stdout), stderr)
			}
			if name == e.Name {
				want.WriteString(stdout)
			}
		}
	}
	if got, _, _ := run(t, append([]string{"-experiment", "all"}, args...)...); got != want.String() {
		t.Errorf("all differs from the rows run one by one:\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
}

// TestDocListsExperiments: the package comment lists the table's rows,
// each with its names, the paper's duration and the flags it offers.
func TestDocListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var list strings.Builder
	for _, e := range scenarios.Experiments {
		var notes []string
		if e.Paper > 0 {
			notes = append(notes, fmt.Sprintf("%g s", e.Paper))
		}
		if len(e.Offers) > 0 {
			notes = append(notes, "-"+strings.Join(e.Offers, " -"))
		}
		line := strings.Join(append([]string{e.Name}, e.Aliases...), ", ")
		if len(notes) > 0 {
			line += " (" + strings.Join(notes, "; ") + ")"
		}
		fmt.Fprintf(&list, "//\t%s\n//\t\t%s\n", line, e.Doc)
	}
	if !strings.Contains(string(src), "//\n"+list.String()+"//\n") {
		t.Errorf("main.go's experiment list is not the table's; it should read:\n%s", list.String())
	}
}

// TestExperimentsGolden: every experiment's text, and the fig7 and fig8
// telemetry files, are byte-identical to outputs recorded before the
// figure runners moved onto scenario documents. The `all` run pins each
// row of the table; the two telemetry files pin the internal counters
// the text does not print.
func TestExperimentsGolden(t *testing.T) {
	stdout, stderr, code := run(t, "-experiment", "all", "-duration", "3", "-seed", "2")
	if code != 0 {
		t.Fatalf("-experiment all: exit %d: %s", code, stderr)
	}
	compareGolden(t, "all_d3_s2.golden", []byte(stdout))
	for _, c := range []struct{ experiment, duration, golden string }{
		{"fig7", "1", "fig7_d1_s1_telemetry.golden"},
		{"fig8", "2", "fig8_d2_s1_telemetry.golden"},
	} {
		file := filepath.Join(t.TempDir(), "telemetry.json")
		if _, stderr, code := run(t, "-experiment", c.experiment, "-duration", c.duration, "-seed", "1", "-telemetry", file); code != 0 {
			t.Fatalf("-experiment %s: exit %d: %s", c.experiment, code, stderr)
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, c.golden, got)
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s (%d bytes, want %d)", name, len(got), len(want))
	}
}
