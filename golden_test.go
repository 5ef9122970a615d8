package lit_test

import (
	"os"
	"testing"

	lit "leaveintime"
	"leaveintime/internal/scenarios"
)

// TestFig7Golden pins the exact output of
//
//	litsim -experiment fig7 -duration 5 -seed 1
//
// against testdata/fig7_d5_s1.golden (the verbatim stdout of that
// command: RunFig7(5, 1).Format() plus the trailing newline litsim
// prints). The file was captured on the seed implementation — binary
// heap event queue — so this test proves the winner-tree engine
// reproduces the seed's event interleaving bit for bit. Regenerate only
// for a deliberate semantic change:
//
//	go run ./cmd/litsim -experiment fig7 -duration 5 -seed 1 > testdata/fig7_d5_s1.golden
func TestFig7Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig7_d5_s1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := lit.RunFig7(5, 1).Format() + "\n"
	if got != string(want) {
		t.Fatalf("fig7 output diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFig8Golden pins the exact output of
//
//	litsim -experiment fig8 -duration 5 -seed 1
//
// against testdata/fig8_d5_s1.golden (the verbatim stdout of that
// command: RunFig8Observed(5, 1, nil).Format() followed by
// FormatBuffers() and the trailing newline litsim prints). The file
// was captured before the pooled packet lifecycle landed — per-packet
// heap allocation, one closure per transmission/arrival/emission — so
// this test proves the packet pool, the pre-bound port and source
// handlers, and the hand-rolled scheduler heaps reproduce the original
// event interleaving bit for bit. The CROSS topology exercises
// multi-hop routes, jitter control, Poisson cross traffic, and buffer
// probes — paths the fig7 golden does not cover. Regenerate only for a
// deliberate semantic change:
//
//	go run ./cmd/litsim -experiment fig8 -duration 5 -seed 1 > testdata/fig8_d5_s1.golden
func TestFig8Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig8_d5_s1.golden")
	if err != nil {
		t.Fatal(err)
	}
	res := scenarios.RunFig8Observed(5, 1, nil)
	got := res.Format() + res.FormatBuffers() + "\n"
	if got != string(want) {
		t.Fatalf("fig8 output diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFig12Golden pins the exact output of
//
//	litsim -experiment fig12 -duration 5 -seed 1
//
// against testdata/fig12_d5_s1.golden: the buffer-space distribution
// view (Figures 12-13) of the same CROSS run the fig8 golden pins —
// litsim prints RunFig8Observed(5, 1, nil).FormatBuffers() plus a
// newline for the fig12 experiment. The buffer view walks the
// per-node probe distributions (occupancy sampling, the buffer bounds,
// jitter-control versus no-control provisioning), none of which the
// fig8 delay view exercises. Regenerate only for a deliberate
// semantic change:
//
//	go run ./cmd/litsim -experiment fig12 -duration 5 -seed 1 > testdata/fig12_d5_s1.golden
func TestFig12Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig12_d5_s1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := scenarios.RunFig8Observed(5, 1, nil).FormatBuffers() + "\n"
	if got != string(want) {
		t.Fatalf("fig12 output diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFig13Golden pins the exact output of
//
//	litsim -experiment fig13 -duration 3 -seed 2
//
// against testdata/fig13_d3_s2.golden. Same view as the fig12 golden
// but a different duration and seed, so the two files pin two distinct
// event trajectories — a regression that happens to cancel at one
// (duration, seed) point still trips the other. Regenerate only for a
// deliberate semantic change:
//
//	go run ./cmd/litsim -experiment fig13 -duration 3 -seed 2 > testdata/fig13_d3_s2.golden
func TestFig13Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig13_d3_s2.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := scenarios.RunFig8Observed(3, 2, nil).FormatBuffers() + "\n"
	if got != string(want) {
		t.Fatalf("fig13 output diverged from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
