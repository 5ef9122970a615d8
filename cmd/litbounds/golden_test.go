package main

import (
	"os"
	"strings"
	"testing"
)

// fig6Config is the paper's Figure 6/7 tandem setup as litbounds sees
// it: one 32 kb/s voice session (424-bit packets, token bucket (r, L))
// crossing five T1 hops with 1 ms propagation each, sharing every hop
// with a 40-session voice aggregate of cross traffic in the calculus
// view.
func fig6Config() boundsConfig {
	return boundsConfig{
		Rate: 32e3, B0: 424, LMax: 424,
		Hops: 5, Capacity: 1536e3, Gamma: 1e-3,
		Calculus: true, CrossRate: 1.28e6, CrossB0: 16960,
	}
}

// TestFig6Golden pins the exact output of
//
//	litbounds -calculus -cross-rate 1280000 -cross-b0 16960
//
// (the Figure 6 configuration: defaults plus the calculus comparison)
// against testdata/fig6_calculus.golden. The file pins both the
// eq. 12-17 bounds and the piecewise-linear FCFS figures — one-hop
// delay, busy period, per-flow backlog, tandem delay — so a regression
// anywhere in the curve arithmetic (convolution kinks, deviation
// candidates, leftover-service bounds) shows up as a byte diff.
// Regenerate only for a deliberate semantic change:
//
//	go run ./cmd/litbounds -calculus -cross-rate 1280000 -cross-b0 16960 \
//	    > cmd/litbounds/testdata/fig6_calculus.golden
func TestFig6Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig6_calculus.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := render(fig6Config()); got != string(want) {
		t.Fatalf("fig6 output diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFig7Golden pins the exact output of
//
//	litbounds -jitterctrl -calculus -cross-rate 1280000 -cross-b0 16960
//
// (the Figure 7 configuration: the same session under delay-jitter
// control) against testdata/fig7_jitter_calculus.golden. Jitter
// control changes the eq. 17 jitter bound and flattens the per-node
// buffer bounds while leaving the FCFS calculus section identical —
// both effects are pinned. Regenerate only for a deliberate semantic
// change:
//
//	go run ./cmd/litbounds -jitterctrl -calculus -cross-rate 1280000 -cross-b0 16960 \
//	    > cmd/litbounds/testdata/fig7_jitter_calculus.golden
func TestFig7Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig7_jitter_calculus.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fig6Config()
	cfg.JitterCtrl = true
	if got := render(cfg); got != string(want) {
		t.Fatalf("fig7 output diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderDefaultsUnchanged guards the flag-free output: without
// -calculus the renderer must produce exactly the historical litbounds
// report — no calculus section, no format drift.
func TestRenderDefaultsUnchanged(t *testing.T) {
	cfg := fig6Config()
	cfg.Calculus = false
	out := render(cfg)
	for _, want := range []string{
		"D_ref_max (eq. 14)", "beta (eq. 13)", "end-to-end delay (eq. 12)",
		"jitter bound", "buffer bound, node 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("default output lost %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "network calculus") {
		t.Errorf("calculus section printed without -calculus:\n%s", out)
	}
}

// TestValidateFlags: the flag values that used to panic (-hops 0) or
// print Inf/NaN bounds with exit 0 are refused with a message naming
// the flag, and validation leaves a good configuration's output alone.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*boundsConfig)
		wantErr string // substring; empty for a valid configuration
	}{
		{"fig6", func(*boundsConfig) {}, ""},
		{"hops 0", func(c *boundsConfig) { c.Hops = 0 }, "-hops"},
		{"rate 0", func(c *boundsConfig) { c.Rate = 0 }, "rate must be positive"},
		{"capacity 0", func(c *boundsConfig) { c.Capacity = 0 }, "capacity must be positive"},
		{"lmin above lmax", func(c *boundsConfig) { c.LMin = 1000 }, "LMin <= LMax"},
		{"b0 below lmax", func(c *boundsConfig) { c.B0 = 100 }, "b0 100"},
	}
	for _, tc := range cases {
		cfg := fig6Config()
		tc.mutate(&cfg)
		err := cfg.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
				continue
			}
			want, rerr := os.ReadFile("testdata/fig6_calculus.golden")
			if rerr != nil {
				t.Fatal(rerr)
			}
			if got := render(cfg); got != string(want) {
				t.Errorf("%s: output changed:\n%s", tc.name, got)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %v, want one line naming %s", tc.name, err, tc.wantErr)
		}
	}
}
