package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagMatrix drives flagConflicts over the audited combinations:
// every incoherent pair is rejected with a message naming both flags,
// and every combination documented as composing passes.
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
		enabled map[string]bool
		// reject lists the flag pairs that must each appear in some
		// message; empty means the combination is accepted.
		reject [][2]string
	}{
		{"defaults", on(), nil},
		{"seed block", on("seeds", "seed", "workers", "repro-dir", "bound-scale"), nil},
		{"replay with watchdog only", on("replay"), nil},

		{"replay with seed", on("replay", "seed"), [][2]string{{"seed", "replay"}}},
		{"replay with seeds", on("replay", "seeds"), [][2]string{{"seeds", "replay"}}},
		{"replay with workers", on("replay", "workers"), [][2]string{{"workers", "replay"}}},
		{"replay with repro-dir", on("replay", "repro-dir"), [][2]string{{"repro-dir", "replay"}}},
		{"replay with bound-scale", on("replay", "bound-scale"), [][2]string{{"bound-scale", "replay"}}},
		{"pileup", on("replay", "repro-dir", "bound-scale"), [][2]string{
			{"repro-dir", "replay"}, {"bound-scale", "replay"},
		}},
	}
	if len(flagMatrix) != 5 {
		t.Errorf("flagMatrix has %d rows, the cases above audit 5", len(flagMatrix))
	}
	for _, c := range cases {
		msgs := flagConflicts(c.enabled)
		if len(c.reject) == 0 {
			if len(msgs) != 0 {
				t.Errorf("%s: unexpectedly rejected: %v", c.name, msgs)
			}
			continue
		}
		if len(msgs) != len(c.reject) {
			t.Errorf("%s: got %d messages %v, want %d", c.name, len(msgs), msgs, len(c.reject))
		}
		for _, pair := range c.reject {
			found := false
			for _, m := range msgs {
				if strings.Contains(m, "-"+pair[0]+" ") && strings.Contains(m, "-"+pair[1]+" ") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no message names both -%s and -%s: %v", c.name, pair[0], pair[1], msgs)
			}
		}
	}
}

// TestFlagMatrixMessagesNameBothFlags pins the message contract for
// every table entry, independent of which combinations the cases above
// exercise.
func TestFlagMatrixMessagesNameBothFlags(t *testing.T) {
	for _, c := range flagMatrix {
		msgs := flagConflicts(map[string]bool{c.a: true, c.b: true})
		if len(msgs) != 1 {
			t.Fatalf("%s+%s: got %v", c.a, c.b, msgs)
		}
		if !strings.Contains(msgs[0], "-"+c.a) || !strings.Contains(msgs[0], "-"+c.b) {
			t.Errorf("message %q does not name both -%s and -%s", msgs[0], c.a, c.b)
		}
		if c.why == "" {
			t.Errorf("%s+%s: conflict has no rationale", c.a, c.b)
		}
	}
}

// TestRetiredFlagsAreUnknown: the battery switches and the
// shard-invariance mode are gone, not ignored — a command line from
// before them must fail loudly (exit 2, the flag named) instead of
// running something else than it asked for. What is left is nine flags.
func TestRetiredFlagsAreUnknown(t *testing.T) {
	for _, arg := range []string{"-classes", "-calculus", "-churn", "-tight-margin=0.8", "-shards=4"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg, "-seeds", "1", "-repro-dir", ""}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", arg, code)
		}
		name, _, _ := strings.Cut(arg, "=")
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+name) || stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, stderr %q", arg, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d", code)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 9 {
		t.Errorf("-h lists %d flags, want 9:\n%s", n, stderr.String())
	}
}

// TestLooseningValuesRefused: a value that would loosen a check or lift
// the watchdog exits before any seed runs. -bound-scale takes 0 or a
// factor in (0, 1], the budgets and the pool size no negative value, and
// a repro's own bound_scale must lie in [0, 1].
func TestLooseningValuesRefused(t *testing.T) {
	doc, err := os.ReadFile("../../examples/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	var loose map[string]any
	if err := json.Unmarshal(doc, &loose); err != nil {
		t.Fatal(err)
	}
	loose["check"] = map[string]any{"bound_scale": 5}
	repro := filepath.Join(t.TempDir(), "loose.json")
	if data, err := json.Marshal(loose); err != nil || os.WriteFile(repro, data, 0o644) != nil {
		t.Fatal("cannot write the loose repro")
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bound-scale", "5"}, 2, "-bound-scale"},
		{[]string{"-bound-scale", "1.5"}, 2, "-bound-scale"},
		{[]string{"-bound-scale", "-0.5"}, 2, "-bound-scale"},
		{[]string{"-bound-scale", "NaN"}, 2, "-bound-scale"},
		{[]string{"-max-events", "-1"}, 2, "-max-events"},
		{[]string{"-max-wall", "-1s"}, 2, "-max-wall"},
		{[]string{"-workers", "-1"}, 2, "-workers"},
		{[]string{"-replay", repro}, 1, "bound_scale 5 is outside [0, 1]"},
	} {
		args := c.args
		if c.args[0] != "-replay" {
			args = append(args, "-seeds", "1", "-repro-dir", "")
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != c.code || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d naming %s",
				c.args, code, stdout.String(), stderr.String(), c.code, c.want)
		}
	}
}

// reportBlocks splits litcheck's output into its failing reports: the
// header line with its violation lines, keyed by the repro the driver
// says it wrote for the report ("" when it names none).
func reportBlocks(out string) map[string]string {
	blocks := make(map[string]string)
	var cur strings.Builder
	flush := func(repro string) {
		if cur.Len() > 0 {
			blocks[repro] += cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(out, "\n") {
		switch {
		case strings.HasPrefix(line, "  repro written to "):
			flush(strings.Fields(line)[3])
		case strings.HasPrefix(line, "  ") && cur.Len() > 0:
			cur.WriteString(line)
		default:
			flush("")
			if strings.HasPrefix(line, "seed ") {
				cur.WriteString(line)
			}
		}
	}
	flush("")
	return blocks
}

// TestInjectedFailuresReproAndReplay drives the whole failure path
// through the one command: bounds tightened to a tenth over seeds 1-10
// must trip LiT's, the class aggregate's and FCFS's delay promises on
// clean cases and LiT's on a session the plan leaves alone on faulted
// ones; a failing clean case is written shrunk, a failing faulted case
// whole beside it, and every file replays — no flag but -replay — to
// exactly the report printed above its name.
func TestInjectedFailuresReproAndReplay(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bound-scale", "0.1", "-seeds", "10", "-repro-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	blocks := reportBlocks(stdout.String())
	if unwritten := blocks[""]; unwritten != "" {
		t.Errorf("failing reports without a repro:\n%s", unwritten)
	}
	var clean, faulted, shrunk int
	hit := map[string]bool{}
	for path, want := range blocks {
		header, violations, _ := strings.Cut(want, "\n")
		churn := strings.Contains(header, " churn ")
		if churn != strings.HasSuffix(path, "_churn.json") {
			t.Errorf("%s holds the report %q", path, header)
		}
		if churn {
			faulted++
		} else {
			clean++
			if strings.Contains(header, " sessions=1 ") {
				shrunk++
			}
		}
		for _, line := range strings.Split(violations, "\n") {
			if f := strings.Fields(line); len(f) > 1 {
				disc, _, _ := strings.Cut(f[1], "@")
				hit[fmt.Sprintf("%s %s churn=%v", f[0], disc, churn)] = true
			}
		}
		var got, errs bytes.Buffer
		if code := run([]string{"-replay", path}, &got, &errs); code != 1 || got.String() != want {
			t.Errorf("%s replays (exit %d) to\n%s%swant\n%s", path, code, got.String(), errs.String(), want)
		}
	}
	if clean != 10 || faulted == 0 || shrunk == 0 {
		t.Errorf("%d clean repros (%d shrunk to one session), %d faulted; want 10, some, some", clean, shrunk, faulted)
	}
	for _, want := range []string{"delay-bound lit churn=false", "delay-bound lit-agg churn=false",
		"delay-bound fcfs churn=false", "delay-bound lit churn=true"} {
		if !hit[want] {
			t.Errorf("no %s violation in\n%s", want, stdout.String())
		}
	}
	// Under a fault plan only LiT's survivors are held to a bound, and
	// the class-aggregated run does not run at all.
	for hit := range hit {
		f := strings.Fields(hit)
		if f[2] == "churn=true" && (f[1] == "lit-agg" || strings.HasSuffix(f[0], "-bound") && f[1] != "lit") {
			t.Errorf("a clean-only check ran under a fault plan: %s", hit)
		}
	}
}

// TestVerboseReplayPrintsLedger: under -v a replay ends with the case's
// "baseline bounds" block, as a seed block does: every row's sessions
// checked, worst ratio and exclusions for the one case. A shrunk
// one-session repro keeps it fast; CI pins examples/scenario.json the
// same way (testdata/scenario.golden).
func TestVerboseReplayPrintsLedger(t *testing.T) {
	want, err := os.ReadFile("testdata/shrunk_seed1_v.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-v", "-replay", "../../internal/simcheck/testdata/old_shrunk_seed1.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (the repro fails)\n%s", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("-v -replay printed\n%swant\n%s", got, want)
	}
}
