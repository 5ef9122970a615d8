package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"leaveintime/internal/serve"
)

// TestFlagMatrix drives flagConflicts over the audited combinations:
// every flag owned by another mode is rejected with a message naming
// the flag and the mode, and every combination documented as composing
// passes.
func TestFlagMatrix(t *testing.T) {
	on := func(names ...string) map[string]bool {
		m := make(map[string]bool)
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		mode    string
		enabled map[string]bool
		// reject lists flags that must each be named in some message;
		// empty means the combination is accepted.
		reject []string
	}{
		{"serve defaults", "serve", on(), nil},
		{"serve full", "serve", on("addr", "workers", "queue", "checkpoint-dir", "slice"), nil},
		{"chaos full", "chaos", on("seeds", "seed", "dir"), nil},

		{"serve with seeds", "serve", on("seeds"), []string{"seeds"}},
		{"serve with chaos dir", "serve", on("seed", "dir"), []string{"seed", "dir"}},
		{"chaos with addr", "chaos", on("addr", "seeds"), []string{"addr"}},
		{"chaos with checkpoint", "chaos", on("checkpoint-dir"), []string{"checkpoint-dir"}},
		{"chaos with daemon shape", "chaos", on("workers", "queue", "slice"),
			[]string{"workers", "queue", "slice"}},
	}
	for _, c := range cases {
		msgs := flagConflicts(c.mode, c.enabled)
		if len(c.reject) == 0 {
			if len(msgs) != 0 {
				t.Errorf("%s: unexpectedly rejected: %v", c.name, msgs)
			}
			continue
		}
		if len(msgs) != len(c.reject) {
			t.Errorf("%s: got %d messages %v, want %d", c.name, len(msgs), msgs, len(c.reject))
		}
		for _, f := range c.reject {
			found := false
			for _, m := range msgs {
				if strings.Contains(m, "-"+f+" ") && strings.Contains(m, "-mode "+c.mode) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no message names -%s and -mode %s: %v", c.name, f, c.mode, msgs)
			}
		}
	}
}

// TestFlagMatrixEntriesHaveRationale pins the message contract for
// every table row.
func TestFlagMatrixEntriesHaveRationale(t *testing.T) {
	for _, c := range flagMatrix {
		if !strings.HasPrefix(c.a, "mode=") {
			t.Errorf("row %+v: first element must be a mode key", c)
		}
		if c.why == "" {
			t.Errorf("%s+%s: conflict has no rationale", c.a, c.b)
		}
		mode := strings.TrimPrefix(c.a, "mode=")
		msgs := flagConflicts(mode, map[string]bool{c.b: true})
		if len(msgs) != 1 || !strings.Contains(msgs[0], "-"+c.b) {
			t.Errorf("%s under %s: got %v", c.b, mode, msgs)
		}
	}
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
