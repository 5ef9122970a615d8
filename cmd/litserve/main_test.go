package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leaveintime/internal/serve"
)

// TestRetiredChaosFlagsAreUnknown: litserve has one mode, and the
// chaos battery is a test (FuzzChaosSeed in internal/serve). A command
// line that still asks for the battery exits 2 naming the flag instead
// of serving behind its back.
func TestRetiredChaosFlagsAreUnknown(t *testing.T) {
	bin := buildLitserve(t)
	for _, args := range [][]string{{"-mode", "chaos"}, {"-seeds", "2"}, {"-seed", "2"}, {"-dir", "x"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: flag not named:\n%s", args, out)
		}
	}
}

// TestRefusedSettings: a -slice that would run a job past its duration
// with no control poll (NaN, +Inf) or is negative, and a negative
// -workers or -queue, exit 2 before the daemon starts. A command that
// would serve instead is killed after a few seconds and fails the row.
func TestRefusedSettings(t *testing.T) {
	bin := buildLitserve(t)
	for _, args := range [][]string{
		{"-slice", "NaN"}, {"-slice", "+Inf"}, {"-slice", "-1"},
		{"-workers", "-1"}, {"-queue", "-1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0")...).CombinedOutput()
		cancel()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), args[0]) {
			t.Errorf("%v: flag not named:\n%s", args, out)
		}
	}
}

// buildLitserve builds the command into a test directory.
func buildLitserve(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "litserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building litserve: %v\n%s", err, out)
	}
	return bin
}

// The daemon stats schema, re-declared field by field. The test
// decodes /v1/stats with DisallowUnknownFields (litsim telemetry-mirror
// precedent), so any change to the emitted schema must consciously
// update this mirror.
type statsMirror struct {
	UptimeS   float64        `json:"uptime_s"`
	Systems   int            `json:"systems"`
	QueueLen  int            `json:"queue_len"`
	QueueCap  int            `json:"queue_cap"`
	Accepting bool           `json:"accepting"`
	Jobs      map[string]int `json:"jobs"`
	Serve     struct {
		Requests        int64 `json:"requests"`
		Malformed       int64 `json:"malformed"`
		Duplicates      int64 `json:"duplicates"`
		Shed            int64 `json:"shed"`
		Setups          int64 `json:"setups"`
		SetupRejects    int64 `json:"setup_rejects"`
		Releases        int64 `json:"releases"`
		Adopts          int64 `json:"adopts"`
		ScenarioQueued  int64 `json:"scenario_queued"`
		ScenarioDone    int64 `json:"scenario_done"`
		ScenarioFailed  int64 `json:"scenario_failed"`
		Panics          int64 `json:"panics"`
		WatchdogTrips   int64 `json:"watchdog_trips"`
		DeadlineExpired int64 `json:"deadline_expired"`
		Checkpoints     int64 `json:"checkpoints"`
		Restores        int64 `json:"restores"`
	} `json:"serve"`
}

// TestStatsSchema pins /v1/stats (including the daemon counter
// section) to the mirror above against a live daemon.
func TestStatsSchema(t *testing.T) {
	d := serve.New(serve.Options{Workers: 1})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	resp, err := http.Get("http://" + d.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var st statsMirror
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/v1/stats does not match the pinned schema: %v", err)
	}
	if st.QueueCap == 0 || !st.Accepting {
		t.Fatalf("fresh daemon stats: %+v", st)
	}
	if st.Serve.Requests == 0 {
		t.Fatal("the stats request itself was not counted")
	}
}
